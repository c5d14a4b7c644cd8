//! Command line: `sdso-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Human-readable lines first; the last line of standard
//! output is one JSON object with the run's verdict and metrics.

use std::process::ExitCode;

use sdso_perfbench::game::{Workload, WORKLOADS};
use sdso_perfbench::host::pin_to_one_cpu;
use sdso_perfbench::run::{run_traced, run_untraced, Report, END_TO_END, GAMES};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_line(report: &Report, keys: &[&str]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for key in keys {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == *key)
            .ok_or_else(|| format!("metric {key} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {key} is not a finite number"));
        }
        metrics
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdso-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    // One CPU for every thread of the run: on a small virtual machine whose
    // CPUs the hypervisor steals, wake-ups across CPUs otherwise dominate
    // and swing host timings several-fold between runs.
    let cpu = match pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("sdso-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.trace {
        run_traced(&w, args.seed, args.seconds)
    } else {
        run_untraced(&w, args.seed, args.seconds)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sdso-perfbench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload {} seed {} trace {}: all threads on CPU {cpu}",
        w.name,
        args.seed,
        u8::from(args.trace),
    );
    for m in &report.metrics {
        println!("{:<28} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for why in &report.failures {
        println!("# failed: {why}");
    }
    let keys: Vec<&str> = if args.trace {
        report.metrics.iter().map(|m| m.name).filter(|n| *n != GAMES).collect()
    } else {
        END_TO_END.to_vec()
    };
    match json_line(&report, &keys) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sdso-perfbench: {}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
