//! The core rewrite rules of the paper's Table 1, as reportable metadata.
//!
//! The executable implementation of each rule lives in the private `expand` and
//! `split` modules; this module carries the human-readable form so that the
//! benchmark harness can regenerate Table 1 (`reproduce --table 1`) and so that tests
//! can assert a one-to-one correspondence between the table and the implementation.

/// One rewrite rule of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleDescription {
    /// The equation number used in the paper (19–29).
    pub number: u32,
    /// Left-hand side (the pattern over data types).
    pub lhs: &'static str,
    /// Right-hand side (the equivalent computation over halved data types).
    pub rhs: &'static str,
    /// Where the rule is implemented in this crate.
    pub implemented_in: &'static str,
}

/// The core rewrite rules (Table 1).
pub const CORE_RULES: [RuleDescription; 11] = [
    RuleDescription {
        number: 19,
        lhs: "a^{2w}",
        rhs: "[a0^w, a1^w]",
        implemented_in: "split::split_once (variable table rebuild)",
    },
    RuleDescription {
        number: 20,
        lhs: "c0^w = floor([a0^w, a1^w] / 2^w)",
        rhs: "c0^w = a0^w",
        implemented_in: "split::Splitter::split_operand (high half selection)",
    },
    RuleDescription {
        number: 21,
        lhs: "c0^w = [a0^w, a1^w] mod 2^w",
        rhs: "c0^w = a1^w",
        implemented_in: "split::Splitter::split_operand (low half selection)",
    },
    RuleDescription {
        number: 22,
        lhs: "[c0^1, c1^w, c2^w] = [a0^w, a1^w] + [b0^w, b1^w]",
        rhs: "[d0^1, c2^w] = a1 + b1;  [c0^1, c1^w] = d0 + a0 + b0",
        implemented_in: "split::Splitter::rewrite_wide_stmt (AddWide)",
    },
    RuleDescription {
        number: 23,
        lhs: "[c0^1, c1^w] = a1^w + b1^w",
        rhs: "c0 = floor((a1 + b1)/2^w);  c1 = (a1 + b1) mod 2^w",
        implemented_in: "moma_ir::Op::AddWide (carry/sum destinations)",
    },
    RuleDescription {
        number: 24,
        lhs: "[c0^w, c1^w] = [a0^1, a1^w, a2^w] mod [q0^w, q1^w]",
        rhs: "d0 = q < [a1,a2];  d1 = (0 < a0) or (a0 =? 0 and d0);  [b0,b1] = [a1,a2] - q;  c = d1 ? [b0,b1] : [a1,a2]",
        implemented_in: "expand::expand_addmod (with a >= correction)",
    },
    RuleDescription {
        number: 25,
        lhs: "[c0^w, c1^w] = [a0^w, a1^w] - [b0^w, b1^w]",
        rhs: "c1 = a1 - b1;  d0 = a1 < b1;  c0 = a0 - b0 - d0",
        implemented_in: "split::Splitter::rewrite_wide_stmt (Sub)",
    },
    RuleDescription {
        number: 26,
        lhs: "d0^1 = [a0^w, a1^w] < [b0^w, b1^w]",
        rhs: "d0 = (a0 < b0) or ((a0 =? b0) and (a1 < b1))",
        implemented_in: "split::Splitter::emit_lt",
    },
    RuleDescription {
        number: 27,
        lhs: "d0^1 = [a0^w, a1^w] =? [b0^w, b1^w]",
        rhs: "(a0 =? b0) and (a1 =? b1)",
        implemented_in: "split::Splitter::rewrite_wide_stmt (Eq)",
    },
    RuleDescription {
        number: 28,
        lhs: "[c0^w, c1^w, c2^w, c3^w] = [a0^w, a1^w] * [b0^w, b1^w]",
        rhs: "[d0,d1] = a1*b1;  [e0,e1] = a0*b0;  [f0,f1] = a0*b1;  [g0,g1] = a1*b0;  [h0,h1,h2] = f + g;  c = [e0,e1,d0,d1] + [h0,h1,h2,0]",
        implemented_in: "split::Splitter::emit_mul_schoolbook",
    },
    RuleDescription {
        number: 29,
        lhs: "[c0^w..c3^w] = [a0^w..a3^w] + [b0^w..b3^w]",
        rhs: "carry chain of four w-bit additions, least significant first",
        implemented_in: "split::Splitter::emit_mul_schoolbook (accumulation)",
    },
];

/// Additional rules the paper describes in prose (§4 "the remaining rules are omitted"):
/// Barrett modular multiplication, Karatsuba multiplication, the multi-word constant
/// shift, and zero pruning for non-power-of-two widths.
pub const EXTENDED_RULES: [RuleDescription; 4] = [
    RuleDescription {
        number: 100,
        lhs: "c^w = (a^w * b^w) mod q^w (Barrett, mu precomputed)",
        rhs: "t = a*b;  r = ((t >> (m-2)) * mu) >> (m+5);  c = t - r*q;  if c >= q then c -= q",
        implemented_in: "expand::expand_mulmod",
    },
    RuleDescription {
        number: 101,
        lhs: "[c0..c3] = [a0,a1] * [b0,b1] (Karatsuba)",
        rhs:
            "z0 = a1*b1;  z2 = a0*b0;  z1 = (a0+a1)(b0+b1) - z0 - z2;  c = z2*2^(2w) + z1*2^w + z0",
        implemented_in: "split::Splitter::emit_mul_karatsuba",
    },
    RuleDescription {
        number: 102,
        lhs: "[c...] = [a...] >> k (k a compile-time constant)",
        rhs: "per-word shifts and ors, concretized only at machine word width",
        implemented_in: "moma_ir::Op::ShrMulti + emitters",
    },
    RuleDescription {
        number: 103,
        lhs: "x^λ with ω < λ < 2ω (non-power-of-two width)",
        rhs: "x = [0, ..., 0, x0, ..., xk-1]; operations on the zero words are pruned",
        implemented_in: "passes::prune_known_zeros + passes::optimize",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_is_complete() {
        let numbers: Vec<u32> = CORE_RULES.iter().map(|r| r.number).collect();
        assert_eq!(numbers, (19..=29).collect::<Vec<u32>>());
    }

    #[test]
    fn every_rule_names_its_implementation() {
        for rule in CORE_RULES.iter().chain(EXTENDED_RULES.iter()) {
            assert!(!rule.lhs.is_empty());
            assert!(!rule.rhs.is_empty());
            assert!(
                rule.implemented_in.contains("::"),
                "rule {} should point at a module path",
                rule.number
            );
        }
    }
}
