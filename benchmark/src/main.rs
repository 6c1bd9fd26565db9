//! The repository benchmark. See `README.md` beside the manifest.
//!
//! ```text
//! moma-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! moma-benchmark all [--seed <n>] [--seconds <s>]
//! moma-benchmark compare <parent results.json>[,<more>...] <change results.json>[,<more>...]
//! moma-benchmark verify-full [--write]
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod oracle;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  moma-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  moma-benchmark all [--seed <n>] [--seconds <s>]
  moma-benchmark compare <parent results.json>[,<more>...] <change results.json>[,<more>...]
  moma-benchmark verify-full [--write]";

/// The value after `flag`, parsed; `default` when the flag is absent.
fn flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value")),
        None => default.ok_or_else(|| format!("{flag} is required")),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("all") => Ok(run::all(
            flag(args, "--seed", Some(1))?,
            flag(args, "--seconds", Some(run::DEFAULT_SECONDS))?,
        )),
        Some("compare") => match args {
            [_, parent, change] => compare::compare_files(parent, change),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("verify-full") => {
            let (engine, oracle) = workloads::ladder::verify_full(1);
            println!("engine {engine:016x}\noracle {oracle:016x}");
            if args.iter().any(|a| a == "--write") {
                let path = concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/expected/ladder_inline.seed1.digest"
                );
                std::fs::write(path, format!("{oracle:016x}\n")).map_err(|e| e.to_string())?;
            }
            Ok(engine == oracle)
        }
        Some(first) if first.starts_with("--") => {
            let seconds: u64 = flag(args, "--seconds", None)?;
            if seconds == 0 {
                return Err("--seconds must be at least 1".to_string());
            }
            Ok(run::run(&run::Args {
                workload: flag(args, "--workload", None)?,
                seed: flag(args, "--seed", None)?,
                seconds,
                trace: flag::<u8>(args, "--trace", None)? != 0,
            }))
        }
        _ => Err("no command given".to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
