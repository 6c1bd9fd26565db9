//! Slice-based Karatsuba multiplication (paper Equation 9).
//!
//! [`karatsuba_mul`] multiplies two equal-length limb slices into a double-length
//! output. Below [`KARATSUBA_THRESHOLD`] limbs it falls back to schoolbook, mirroring
//! how the rewrite system composes the Karatsuba rule at the top recursion levels with
//! schoolbook leaves.

/// Operand size (in limbs) below which schoolbook multiplication is used.
pub(crate) const KARATSUBA_THRESHOLD: usize = 4;

/// Multiplies `a` and `b` (equal length `n`) into `out` (length `2n`), schoolbook.
pub(crate) fn schoolbook_mul(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(out.len(), 2 * a.len());
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u64;
        for (j, &bj) in b.iter().enumerate() {
            let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry as u128;
            out[i + j] = t as u64;
            carry = (t >> 64) as u64;
        }
        out[i + b.len()] = carry;
    }
}

/// Scratch words [`karatsuba_mul`] needs for `n`-limb operands: at each
/// recursion level `z0`, `z2` (`n` each), the middle product with its carry
/// terms (`n + 2`) and the two operand sums (`n/2` each), then the next
/// level's share.
pub(crate) const fn scratch_len(n: usize) -> usize {
    if n < KARATSUBA_THRESHOLD || n % 2 != 0 {
        0
    } else {
        4 * n + 2 + scratch_len(n / 2)
    }
}

/// Multiplies `a` and `b` (equal length `n`) into `out` (length `2n`) using Karatsuba
/// recursion with schoolbook leaves. Every intermediate lives in `scratch`,
/// which each level splits and hands its remainder to the next: nothing is
/// allocated.
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths, `out` is not exactly twice as
/// long, or `scratch` holds fewer than [`scratch_len`]`(n)` words.
pub(crate) fn karatsuba_mul(a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut [u64]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(out.len(), 2 * a.len());
    let n = a.len();
    if n < KARATSUBA_THRESHOLD || n % 2 != 0 {
        schoolbook_mul(a, b, out);
        return;
    }
    let half = n / 2;
    let (a0, a1) = a.split_at(half); // a0 = low limbs, a1 = high limbs
    let (b0, b1) = b.split_at(half);
    let (z0, rest) = scratch.split_at_mut(n);
    let (z2, rest) = rest.split_at_mut(n);
    let (z1, rest) = rest.split_at_mut(n + 2);
    let (sa, rest) = rest.split_at_mut(half);
    let (sb, rest) = rest.split_at_mut(half);

    // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1) - z0 - z2
    karatsuba_mul(a0, b0, z0, rest);
    karatsuba_mul(a1, b1, z2, rest);

    // Sums a0+a1 and b0+b1 can carry one extra bit; keep them as (limbs, carry).
    let ca = add_slices(a0, a1, sa);
    let cb = add_slices(b0, b1, sb);
    karatsuba_mul(sa, sb, &mut z1[..n], rest);
    // Add the carry cross terms: (ca·2^h + sa)(cb·2^h + sb)
    //   = z1 + ca·sb·2^h + cb·sa·2^h + ca·cb·2^(2h)
    z1[n..].fill(0);
    if ca {
        add_into(&mut z1[half..], sb);
    }
    if cb {
        add_into(&mut z1[half..], sa);
    }
    if ca && cb {
        add_into(&mut z1[n..], &[1]);
    }
    // z1 := z1 - z0 - z2
    sub_from(z1, z0);
    sub_from(z1, z2);

    // out = z0 + z1·2^(64·half) + z2·2^(64·n)
    out[..n].copy_from_slice(z0);
    out[n..].copy_from_slice(z2);
    add_into(&mut out[half..], z1);
}

/// Writes `a + b` (equal lengths) into `out`, returning the carry-out.
fn add_slices(a: &[u64], b: &[u64], out: &mut [u64]) -> bool {
    let mut carry = 0u64;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        let s = x as u128 + y as u128 + carry as u128;
        *o = s as u64;
        carry = (s >> 64) as u64;
    }
    carry != 0
}

/// Adds `src` into `dst` in place (`dst` must be long enough to absorb the carry).
fn add_into(dst: &mut [u64], src: &[u64]) {
    let mut carry = 0u64;
    let mut i = 0;
    while i < src.len() || carry != 0 {
        let s = dst[i] as u128 + src.get(i).copied().unwrap_or(0) as u128 + carry as u128;
        dst[i] = s as u64;
        carry = (s >> 64) as u64;
        i += 1;
    }
}

/// Subtracts `src` from `dst` in place (`dst >= src` must hold).
fn sub_from(dst: &mut [u64], src: &[u64]) {
    let mut borrow = 0u64;
    let mut i = 0;
    while i < src.len() || borrow != 0 {
        let (d1, b1) = dst[i].overflowing_sub(src.get(i).copied().unwrap_or(0));
        let (d2, b2) = d1.overflowing_sub(borrow);
        dst[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        for n in [1usize, 2, 3, 4, 6, 8, 12, 16, 32] {
            let a = pseudo_random(n, 0xabc0 + n as u64);
            let b = pseudo_random(n, 0xdef0 + n as u64);
            let mut out_s = vec![0u64; 2 * n];
            let mut out_k = vec![0u64; 2 * n];
            schoolbook_mul(&a, &b, &mut out_s);
            karatsuba_mul(&a, &b, &mut out_k, &mut vec![0; scratch_len(n)]);
            assert_eq!(out_s, out_k, "n = {n}");
        }
    }

    #[test]
    fn all_ones_squares() {
        for n in [4usize, 8, 16] {
            let a = vec![u64::MAX; n];
            let mut out_s = vec![0u64; 2 * n];
            let mut out_k = vec![0u64; 2 * n];
            schoolbook_mul(&a, &a, &mut out_s);
            karatsuba_mul(&a, &a, &mut out_k, &mut vec![0; scratch_len(n)]);
            assert_eq!(out_s, out_k);
        }
    }

    #[test]
    fn zero_and_one_operands() {
        let a = vec![0u64; 8];
        let b = pseudo_random(8, 99);
        let mut out = vec![1u64; 16];
        let mut scratch = vec![0; scratch_len(8)];
        karatsuba_mul(&a, &b, &mut out, &mut scratch);
        assert!(out.iter().all(|&x| x == 0));
        let mut one = vec![0u64; 8];
        one[0] = 1;
        karatsuba_mul(&one, &b, &mut out, &mut scratch);
        assert_eq!(&out[..8], &b[..]);
        assert!(out[8..].iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut out = vec![0u64; 6];
        karatsuba_mul(&[1, 2], &[1, 2, 3], &mut out, &mut []);
    }
}
