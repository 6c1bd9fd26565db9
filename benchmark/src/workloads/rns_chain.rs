//! `rns_chain_inline`: three fused `RnsVec` chain operations on 4096 elements
//! over a 19-modulus basis. A handful of large launches per operation, so
//! `CompiledKernel::run_lanes` and the fused kernels are the time and launch
//! dispatch is noise; no NTT and no ring. The witness that a `moma-rns`
//! clean-up or a kernel-executor change did what it claimed and nothing else.

use super::{
    common_layers, inline_window, median_us, paired_windows, random_values, span_parts, Traced,
    Workload,
};
use crate::metrics::Layers;
use crate::oracle;
use crate::stats::Window;
use crate::trace::{span_in, Scope, Span, Tracer};
use moma::bignum::BigUint;
use moma::rns::{RnsContext, RnsInt};
use moma::{RnsSpace, RnsVec, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const ELEMENTS: usize = 4096;
const OPERAND_BITS: u32 = 256;
/// Dynamic range of the source basis: room for a product of two operands.
const CAPACITY_BITS: u32 = 520;
/// Every `STRIDE`-th element is checked against the `BigUint` reference (64 in all).
const STRIDE: usize = ELEMENTS / 64;
const WARM_UP_OPS: usize = 4;

pub struct RnsChainInline {
    session: Session,
    src: RnsSpace,
    dst: RnsSpace,
    /// `x, y, z, w` on the source basis.
    operands: [RnsVec; 4],
    /// The same four operands in positional form.
    values: [Vec<BigUint>; 4],
    scalar: BigUint,
    /// Reference residues of the sampled elements, in element order (from `verify`).
    expected: Vec<RnsInt>,
    launches_per_op: u64,
    cold_build: Duration,
}

impl RnsChainInline {
    /// `s·(x∘y) + z`, times `w` rescaled onto the basis minus its last
    /// modulus, extended back. Returns the result and the launches the two
    /// calls that report them reported (`base_convert` returns no statistics).
    fn op(&self, tracer: Option<(&Tracer, u64)>) -> (RnsVec, u64) {
        let [x, y, z, w] = &self.operands;
        let scope = tracer.map(|(tracer, op)| Scope {
            tracer,
            parent: tracer.begin("chain", None, op),
            op,
        });
        let (t, first) = span_in(scope, "rns.mul_axpy", || {
            x.mul_axpy_with_stats(y, &self.scalar, z)
        });
        let (u, second) = span_in(scope, "rns.mul_rescale_then_extend", || {
            t.mul_rescale_then_extend_with_stats(w, &self.dst)
        });
        let out = span_in(scope, "rns.base_convert", || u.base_convert(&self.src));
        drop((t, u));
        if let Some(s) = scope {
            s.tracer.end(s.parent);
        }
        (out, (first.launches + second.launches) as u64)
    }

    fn matches(&self, out: &RnsVec) -> bool {
        let m = out.matrix();
        self.expected.iter().enumerate().all(|(i, e)| {
            e.residues
                .iter()
                .enumerate()
                .all(|(r, &residue)| m.row(r)[i * STRIDE] == residue)
        })
    }
}

impl Workload for RnsChainInline {
    fn setup(seed: u64) -> Self {
        let started = Instant::now();
        let session = Session::default();
        let src = session.rns_with_capacity(CAPACITY_BITS);
        let moduli = src.moduli();
        let dst = session.rns(&moduli[..moduli.len() - 1]);
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = BigUint::one() << OPERAND_BITS;
        let values = [(); 4].map(|()| random_values(&mut rng, ELEMENTS, &bound));
        let scalar = BigUint::from(rng.gen_range(2..128));
        let operands = [0, 1, 2, 3].map(|i| src.encode(&values[i]));
        let mut this = RnsChainInline {
            session,
            src,
            dst,
            operands,
            values,
            scalar,
            expected: Vec::new(),
            launches_per_op: 0,
            cold_build: Duration::ZERO,
        };
        this.launches_per_op = this.op(None).1;
        this.cold_build = started.elapsed();
        for _ in 0..WARM_UP_OPS {
            this.op(None);
        }
        this
    }

    fn verify(&mut self) {
        let src = RnsContext::with_moduli(&self.src.moduli());
        let dst = src.without_last();
        self.expected = (0..ELEMENTS)
            .step_by(STRIDE)
            .map(|i| {
                let element = [0, 1, 2, 3].map(|v| &self.values[v][i]);
                oracle::chain_element(&src, &dst, element, &self.scalar)
            })
            .collect();
        assert!(
            self.matches(&self.op(None).0),
            "chain result diverged from the BigUint reference"
        );
    }

    fn window(&mut self, length: Duration) -> Window {
        inline_window(length, |_| self.matches(&self.op(None).0))
    }

    fn trace(&mut self, length: Duration, layers: &mut Layers) -> (Window, Vec<Span>) {
        let session = self.session.clone();
        let tracer = Tracer::new();
        let (plain, traced, pool_allocs_per_op) = paired_windows(&session, length, |traced| {
            self.matches(&self.op(traced.map(|op| (&tracer, op))).0)
        });
        let spans = tracer.into_spans();

        common_layers(
            layers,
            Traced {
                session: &session,
                cold_build: self.cold_build,
                launches_per_op: self.launches_per_op as f64,
                pool_allocs_per_op,
                plain: &plain,
                traced: &traced,
            },
        );

        span_parts(
            layers,
            &spans,
            traced.attempted,
            "chain",
            &[
                ("rns.mul_axpy_ms", "rns.mul_axpy"),
                ("rns.mul_rescale_extend_ms", "rns.mul_rescale_then_extend"),
                ("rns.base_convert_ms", "rns.base_convert"),
            ],
        );

        let encode_us = median_us(9, || {
            std::hint::black_box(self.src.encode(&self.values[0]));
        });
        let decode_us = median_us(9, || {
            std::hint::black_box(self.operands[0].to_biguints());
        });
        layers.set("rns.encode_ms", encode_us / 1e3);
        layers.set("rns.decode_ms", decode_us / 1e3);
        (traced, spans)
    }
}
