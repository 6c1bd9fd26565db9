//! Runs one workload the way the measurement rule says, and `all` of them.

use crate::host;
use crate::json::quote;
use crate::metrics::{Layers, END_TO_END, PER_LAYER};
use crate::stats::{Summary, Window};
use crate::trace;
use crate::workloads::ladder::LadderInline;
use crate::workloads::multiword::MultiwordInline;
use crate::workloads::rns_chain::RnsChainInline;
use crate::workloads::serve::{ServeLadderClosed, ServeSmallSaturated, ServeSmallSteady};
use crate::workloads::{Workload, NAMES};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// Measured windows per run; one more, discarded, runs before them.
pub const WINDOWS: usize = 15;
/// Length of each of the traced pass's two windows, in measured windows.
const TRACED_WINDOWS: u32 = 3;
/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 5;
/// `--seconds` when `all` is not given one (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 15;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Where result and span files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created");
    dir
}

/// Runs the named workload and prints its result. `false` means the run is
/// void: an unknown name, or an output that did not match its reference.
pub fn run(args: &Args) -> bool {
    match args.workload.as_str() {
        "ladder_inline" => drive::<LadderInline>(args),
        "rns_chain_inline" => drive::<RnsChainInline>(args),
        "multiword_inline" => drive::<MultiwordInline>(args),
        "serve_small_steady" => drive::<ServeSmallSteady>(args),
        "serve_small_saturated" => drive::<ServeSmallSaturated>(args),
        "serve_ladder_closed" => drive::<ServeLadderClosed>(args),
        other => {
            eprintln!("unknown workload `{other}`; the workloads are {NAMES:?}");
            false
        }
    }
}

fn drive<W: Workload>(args: &Args) -> bool {
    // Only the last instance is verified and measured; the earlier ones exist
    // to be timed. Each is dropped before the next is built.
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(W::setup(args.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    workload.verify();
    let length = Duration::from_secs_f64(args.seconds as f64 / WINDOWS as f64);

    let (windows, metrics) = if args.trace {
        let mut layers = Layers::new();
        // One plain and one traced window, each long enough to have a tail.
        let (traced, spans) = workload.trace(TRACED_WINDOWS * length, &mut layers);
        let path = out_dir().join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, trace::to_json(&args.workload, &spans))
            .expect("span file is writable");
        println!("{} spans -> {}", spans.len(), path.display());
        let metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, Summary::single(layers.get(m.name))))
            .collect();
        (vec![traced], metrics)
    } else {
        workload.window(length);
        let windows: Vec<Window> = (0..WINDOWS).map(|_| workload.window(length)).collect();
        if let Some(empty) = windows.iter().position(|w| w.op_ms.is_empty()) {
            eprintln!(
                "{}: window {empty} completed no correct operation",
                args.workload
            );
            return false;
        }
        let values = [
            Summary::median_of(setup_s),
            Summary::good_quartile_of(windows.iter().map(Window::ops_per_s).collect(), false),
            Summary::good_quartile_of(windows.iter().map(|w| w.percentile_ms(0.5)).collect(), true),
            Summary::single(host::peak_rss_mb()),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect();
        (windows, metrics)
    };
    drop(workload);
    report(args, &windows, metrics)
}

/// Prints one line per metric, writes the detailed result file, and prints
/// the one-object summary as the last line.
fn report(args: &Args, windows: &[Window], metrics: Vec<(&str, &str, Summary)>) -> bool {
    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let mismatched: u64 = windows.iter().map(|w| w.mismatched).sum();
    let failed = mismatched + windows.iter().map(|w| w.failed).sum::<u64>();
    let correct = mismatched == 0;

    let mut detail = String::new();
    let mut last_line = String::new();
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let value = v.value;
        assert!(value.is_finite(), "{name} is not a finite number");
        let [q1, median, q3] = v.quartiles();
        println!(
            "{:<22} {name:<34} {value:>14.4} {unit:<6} (quartiles {q1:.4} {median:.4} {q3:.4})",
            args.workload,
        );
        let sep = if i == 0 { "" } else { ", " };
        write!(
            detail,
            "{sep}\n  {}: {{\"unit\": {}, \"value\": {value}, \"windows\": {:?}}}",
            quote(name),
            quote(unit),
            v.windows
        )
        .expect("writing to a String cannot fail");
        write!(
            last_line,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            value,
            quote(unit)
        )
        .expect("writing to a String cannot fail");
    }
    let per_window: Vec<String> = windows.iter().map(|w| w.attempted.to_string()).collect();
    let head = format!("\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}");
    let file = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, {head}, \
         \"attempted_per_window\": [{}], \"metrics\": {{{detail}\n}}}}\n",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        per_window.join(", "),
    );
    std::fs::write(result_path(&args.workload, args.trace), file).expect("result file is writable");
    println!(
        "{:<22} attempted {attempted}, failed {failed}, attempted per window [{}]",
        args.workload,
        per_window.join(", ")
    );
    println!("{{{head}, \"metrics\": {{{last_line}}}}}");
    correct
}

fn result_path(workload: &str, trace: bool) -> PathBuf {
    let kind = if trace { "per_layer" } else { "end_to_end" };
    out_dir().join(format!("{workload}.{kind}.json"))
}

/// Runs every workload in a process of its own (so neither peak memory nor a
/// warm cache leaks from one into the next), untraced and then traced, and
/// gathers the result files into `out/results.json`.
pub fn all(seed: u64, seconds: u64) -> bool {
    let exe = std::env::current_exe().expect("this program has a path");
    let mut ok = true;
    let mut sections = [String::new(), String::new()];
    for (section, trace) in sections.iter_mut().zip([false, true]) {
        for name in NAMES {
            let status = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .expect("the benchmark can start itself");
            if !status.success() {
                eprintln!("{name} (trace {}) failed: {status}", u8::from(trace));
                ok = false;
                continue;
            }
            let result = std::fs::read_to_string(result_path(name, trace))
                .expect("a successful run wrote its result file");
            let sep = if section.is_empty() { "" } else { ",\n" };
            write!(section, "{sep}{}: {}", quote(name), result.trim_end())
                .expect("writing to a String cannot fail");
        }
    }
    let [end_to_end, per_layer] = sections;
    let path = out_dir().join("results.json");
    std::fs::write(
        &path,
        format!(
            "{{\"stamp\": {},\n\"end_to_end\": {{\n{end_to_end}\n}},\n\"per_layer\": {{\n{per_layer}\n}}}}\n",
            host::stamp(seed, seconds)
        ),
    )
    .expect("results.json is writable");
    println!("results -> {}", path.display());
    ok
}
