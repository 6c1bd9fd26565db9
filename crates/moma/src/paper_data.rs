//! Published baseline numbers digitised from the paper's figures.
//!
//! The paper compares against closed-source libraries (ICICLE, GZKP, Libsnark, GMP,
//! GRNS, OpenFHE, AVX-NTT) and ASICs (RPU, FPMM, PipeZK) whose results cannot be
//! re-measured here. To regenerate every figure with all of its lines, this module
//! records the values *as reported by the paper* (read off the published log-scale
//! plots, so they are approximate to within ~20%). All values are nanoseconds per
//! butterfly for NTT figures and nanoseconds per element for BLAS figures.

/// One published reference series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// System name as used in the paper's legends.
    pub system: &'static str,
    /// Platform (GPU model, CPU, or "ASIC").
    pub platform: &'static str,
    /// Input bit-width the series belongs to.
    pub bits: u32,
    /// Points `(log2 n, ns per butterfly)` for NTT series.
    pub points: &'static [(u32, f64)],
}

/// Figure 1 / Figure 3b — 256-bit NTT baselines.
pub const NTT_256_BASELINES: [Reference; 4] = [
    Reference {
        system: "ICICLE",
        platform: "H100",
        bits: 256,
        points: &[
            (10, 30.0),
            (12, 16.0),
            (14, 12.0),
            (16, 10.0),
            (18, 9.0),
            (20, 9.0),
            (22, 9.5),
        ],
    },
    Reference {
        system: "GZKP",
        platform: "V100",
        bits: 256,
        points: &[(16, 1.6), (18, 1.2), (20, 1.0), (22, 0.9)],
    },
    Reference {
        system: "PipeZK",
        platform: "ASIC",
        bits: 256,
        points: &[(16, 2.8), (18, 2.8), (20, 2.8)],
    },
    Reference {
        system: "FPMM",
        platform: "ASIC",
        bits: 256,
        points: &[(12, 1.4), (16, 1.4)],
    },
];

/// Figure 3a — 128-bit NTT baselines.
pub const NTT_128_BASELINES: [Reference; 4] = [
    Reference {
        system: "OpenFHE",
        platform: "CPU",
        bits: 128,
        points: &[(10, 60.0), (12, 55.0), (14, 52.0), (16, 50.0)],
    },
    Reference {
        system: "AVX-NTT",
        platform: "CPU",
        bits: 128,
        points: &[(10, 18.0), (12, 16.0), (14, 15.0), (16, 14.0)],
    },
    Reference {
        system: "RPU",
        platform: "ASIC",
        bits: 128,
        points: &[(10, 0.75), (12, 0.75), (14, 0.75), (16, 0.75)],
    },
    Reference {
        system: "FPMM",
        platform: "ASIC",
        bits: 128,
        points: &[(12, 0.95), (16, 0.95)],
    },
];

/// Figure 3c — 384-bit NTT baselines.
pub const NTT_384_BASELINES: [Reference; 2] = [
    Reference {
        system: "ICICLE",
        platform: "H100",
        bits: 384,
        points: &[
            (10, 40.0),
            (12, 25.0),
            (14, 20.0),
            (16, 17.0),
            (18, 16.0),
            (20, 16.0),
        ],
    },
    Reference {
        system: "FPMM",
        platform: "ASIC",
        bits: 384,
        points: &[(12, 2.1), (16, 2.1)],
    },
];

/// Figure 3d — 768-bit NTT baselines.
pub const NTT_768_BASELINES: [Reference; 3] = [
    Reference {
        system: "PipeZK",
        platform: "ASIC",
        bits: 768,
        points: &[(14, 22.0), (16, 22.0), (18, 22.0), (20, 22.0)],
    },
    Reference {
        system: "GZKP",
        platform: "V100",
        bits: 768,
        points: &[(16, 7.0), (18, 6.0), (20, 5.5)],
    },
    Reference {
        system: "Libsnark",
        platform: "CPU",
        bits: 768,
        points: &[(14, 250.0), (16, 240.0), (18, 230.0), (20, 230.0)],
    },
];

/// One BLAS baseline value: `(bits, ns per element)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlasReference {
    /// System name.
    pub system: &'static str,
    /// Platform.
    pub platform: &'static str,
    /// BLAS operation name (paper labels: "vector multiplication", "vector addition",
    /// "vector subtraction", "axpy").
    pub op: &'static str,
    /// Points `(bit-width, ns per element)`.
    pub points: &'static [(u32, f64)],
}

/// Figure 2 — GMP (CPU, OpenMP over all cores) per-element times.
pub const BLAS_GMP: [BlasReference; 4] = [
    BlasReference {
        system: "GMP",
        platform: "Xeon Gold 6248",
        op: "vector multiplication",
        points: &[(128, 60.0), (256, 90.0), (512, 55.0), (1024, 45.0)],
    },
    BlasReference {
        system: "GMP",
        platform: "Xeon Gold 6248",
        op: "vector addition",
        points: &[(128, 55.0), (256, 60.0), (512, 45.0), (1024, 40.0)],
    },
    BlasReference {
        system: "GMP",
        platform: "Xeon Gold 6248",
        op: "vector subtraction",
        points: &[(128, 55.0), (256, 60.0), (512, 45.0), (1024, 40.0)],
    },
    BlasReference {
        system: "GMP",
        platform: "Xeon Gold 6248",
        op: "axpy",
        points: &[(128, 110.0), (256, 140.0), (512, 95.0), (1024, 85.0)],
    },
];

/// Figure 2 — GRNS (V100) per-element times.
pub const BLAS_GRNS: [BlasReference; 4] = [
    BlasReference {
        system: "GRNS",
        platform: "V100",
        op: "vector multiplication",
        points: &[(128, 4.0), (256, 6.0), (512, 10.0), (1024, 20.0)],
    },
    BlasReference {
        system: "GRNS",
        platform: "V100",
        op: "vector addition",
        points: &[(128, 3.0), (256, 4.0), (512, 6.0), (1024, 10.0)],
    },
    BlasReference {
        system: "GRNS",
        platform: "V100",
        op: "vector subtraction",
        points: &[(128, 3.0), (256, 4.0), (512, 6.0), (1024, 10.0)],
    },
    BlasReference {
        system: "GRNS",
        platform: "V100",
        op: "axpy",
        points: &[(128, 7.0), (256, 10.0), (512, 16.0), (1024, 30.0)],
    },
];

/// Headline speedup claims from the paper's abstract and §5, used by the experiment
/// report to check whether the reproduction preserves the qualitative result.
pub mod claims {
    /// MoMA vs ICICLE, 256-bit NTT, average over all sizes (×).
    pub const NTT_256_VS_ICICLE: f64 = 13.0;
    /// Minimum MoMA speedup over GMP/GRNS across all BLAS ops and widths (×).
    pub const BLAS_MIN_SPEEDUP: f64 = 13.0;
    /// Minimum MoMA speedup over GMP for addition/subtraction (×).
    pub const BLAS_ADDSUB_VS_GMP: f64 = 527.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_series_are_well_formed() {
        for r in NTT_256_BASELINES
            .iter()
            .chain(NTT_128_BASELINES.iter())
            .chain(NTT_384_BASELINES.iter())
            .chain(NTT_768_BASELINES.iter())
        {
            assert!(!r.points.is_empty(), "{} has points", r.system);
            assert!(r.points.iter().all(|(_, ns)| *ns > 0.0));
            assert!(
                r.points.windows(2).all(|w| w[0].0 < w[1].0),
                "{} sizes sorted",
                r.system
            );
        }
    }

    #[test]
    fn blas_references_cover_all_widths() {
        for r in BLAS_GMP.iter().chain(BLAS_GRNS.iter()) {
            let widths: Vec<u32> = r.points.iter().map(|(b, _)| *b).collect();
            assert_eq!(widths, vec![128, 256, 512, 1024]);
        }
    }

    #[test]
    fn claims_are_the_published_numbers() {
        assert_eq!(claims::NTT_256_VS_ICICLE, 13.0);
        assert_eq!(claims::BLAS_ADDSUB_VS_GMP, 527.0);
    }
}
