//! The metric names, units and directions this benchmark reports. `BENCHMARK.json`
//! lists the same names; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a caller of the system sees. `bound` is the
/// share of the parent's median by which it may worsen before `compare` calls
/// the change a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: `layer.what`, with the layer named after its crate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the test that keeps `BENCHMARK.json` in step: per-layer
    /// metrics have no bound, so nothing at run time judges them.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 44] = [
    lower("gpu.empty_launch_us", "us"),
    lower("gpu.launches_per_op", "count"),
    lower("gpu.dispatch_share", "ratio"),
    lower("gpu.pool_allocs_per_op", "count"),
    lower("gpu.pool_resident_mb", "MB"),
    lower("ir.compiled_ns_per_elt.modmul128", "ns"),
    lower("ir.compiled_ns_per_elt.modmul256", "ns"),
    lower("ir.interp_ns_per_elt.modmul128", "ns"),
    lower("ir.kernel_ops_total", "count"),
    lower("ir.kernel_registers_total", "count"),
    lower("rewrite.compile_ms", "ms"),
    lower("ntt.inline_fwd_us.n4096", "us"),
    lower("ntt.launcher_fwd_us.n4096", "us"),
    lower("ntt.launcher_batch16_fwd_us.n1024", "us"),
    lower("ntt.stage_launches_per_transform", "count"),
    lower("ntt.mw128_ns_per_butterfly", "ns"),
    lower("rns.mul_axpy_ms", "ms"),
    lower("rns.mul_rescale_extend_ms", "ms"),
    lower("rns.base_convert_ms", "ms"),
    lower("rns.encode_ms", "ms"),
    lower("rns.decode_ms", "ms"),
    lower("ring.raise_ms", "ms"),
    lower("ring.pointwise_ms", "ms"),
    lower("ring.lower_ms", "ms"),
    lower("ring.rescale_ms", "ms"),
    lower("ring.clone_ms", "ms"),
    lower("ring.encode_ms", "ms"),
    lower("ring.decode_ms", "ms"),
    higher("ring.parts_over_total", "ratio"),
    lower("session.cold_build_ms", "ms"),
    higher("session.cache_hit_share", "ratio"),
    lower("serve.submit_us", "us"),
    higher("serve.avg_batch", "count"),
    higher("serve.coalesced_share", "ratio"),
    lower("serve.shed_share", "ratio"),
    lower("serve.inline_exec_ms", "ms"),
    lower("serve.overhead_ms", "ms"),
    lower("serve.codec_ms_per_req", "ms"),
    lower("serve.plane_allocs_per_req", "count"),
    lower("serve.gen_late_ms_p99", "ms"),
    lower("serve.backlog_end", "count"),
    lower("serve.op_ms_p99", "ms"),
    lower("tail.op_ms_p90", "ms"),
    lower("trace.overhead_share", "ratio"),
];

/// The per-layer values of one traced run. Every name is present from the
/// start and reads 0 until set: a workload that never enters a layer spends
/// no time and makes no calls there.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics on a name that is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn names(list: &Value) -> Vec<(String, String, String)> {
        list.as_array()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).as_str().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_in_the_code() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(names(doc.get("end_to_end")), e2e);
        for (m, listed) in END_TO_END.iter().zip(doc.get("end_to_end").as_array()) {
            assert_eq!(listed.get("bound").as_f64(), m.bound, "{}", m.name);
        }
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
            .collect();
        assert_eq!(names(doc.get("per_layer")), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .as_array()
            .iter()
            .map(|w| w.get("name").as_str())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").as_f64(),
            crate::run::DEFAULT_SECONDS as f64
        );
    }
}
