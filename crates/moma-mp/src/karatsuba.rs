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

/// Multiplies `a` and `b` (equal length `n`) into `out` (length `2n`) using Karatsuba
/// recursion with schoolbook leaves.
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths or `out` is not exactly twice as long.
pub(crate) fn karatsuba_mul(a: &[u64], b: &[u64], out: &mut [u64]) {
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

    // z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)(b0+b1) - z0 - z2
    let mut z0 = vec![0u64; n];
    let mut z2 = vec![0u64; n];
    karatsuba_mul(a0, b0, &mut z0);
    karatsuba_mul(a1, b1, &mut z2);

    // Sums a0+a1 and b0+b1 can carry one extra bit; keep them as (limbs, carry).
    let (sa, ca) = add_slices(a0, a1);
    let (sb, cb) = add_slices(b0, b1);
    let mut z1 = vec![0u64; n];
    karatsuba_mul(&sa, &sb, &mut z1);
    // Add the carry cross terms: (ca·2^h + sa)(cb·2^h + sb)
    //   = z1 + ca·sb·2^h + cb·sa·2^h + ca·cb·2^(2h)
    let mut z1ext = vec![0u64; n + 2];
    z1ext[..n].copy_from_slice(&z1);
    if ca {
        add_into(&mut z1ext[half..], &sb);
    }
    if cb {
        add_into(&mut z1ext[half..], &sa);
    }
    if ca && cb {
        add_into(&mut z1ext[n..], &[1]);
    }
    // z1 := z1 - z0 - z2
    sub_from(&mut z1ext, &z0);
    sub_from(&mut z1ext, &z2);

    // out = z0 + z1·2^(64·half) + z2·2^(64·n)
    out.fill(0);
    out[..n].copy_from_slice(&z0);
    add_into(&mut out[n..], &z2);
    add_into(&mut out[half..], &z1ext);
}

/// Adds two equal-length slices, returning the sum limbs and the carry-out.
fn add_slices(a: &[u64], b: &[u64]) -> (Vec<u64>, bool) {
    let mut out = vec![0u64; a.len()];
    let mut carry = 0u64;
    for i in 0..a.len() {
        let s = a[i] as u128 + b[i] as u128 + carry as u128;
        out[i] = s as u64;
        carry = (s >> 64) as u64;
    }
    (out, carry != 0)
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
            karatsuba_mul(&a, &b, &mut out_k);
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
            karatsuba_mul(&a, &a, &mut out_k);
            assert_eq!(out_s, out_k);
        }
    }

    #[test]
    fn zero_and_one_operands() {
        let a = vec![0u64; 8];
        let b = pseudo_random(8, 99);
        let mut out = vec![1u64; 16];
        karatsuba_mul(&a, &b, &mut out);
        assert!(out.iter().all(|&x| x == 0));
        let mut one = vec![0u64; 8];
        one[0] = 1;
        karatsuba_mul(&one, &b, &mut out);
        assert_eq!(&out[..8], &b[..]);
        assert!(out[8..].iter().all(|&x| x == 0));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut out = vec![0u64; 6];
        karatsuba_mul(&[1, 2], &[1, 2, 3], &mut out);
    }
}
