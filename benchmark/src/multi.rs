//! The multi-process modes: `all` runs every workload once; `aa` runs
//! two interleaved sets on this same binary and checks that they agree
//! within the bounds the benchmark sets for later changes.

use crate::catalog::{Better, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::NAMES;
use serde::Value;
use std::process::{Command, ExitCode, Stdio};

fn child(workload: &str, seed: u64, seconds: u64, trace: bool, smoke: bool) -> Command {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    cmd
}

/// Run each workload once, in its own process, printing every metric.
pub fn all(seed: u64, seconds: u64, trace: bool, smoke: bool) -> ExitCode {
    let mut failed = Vec::new();
    for name in NAMES {
        println!("== {name}");
        let status = child(name, seed, seconds, trace, smoke)
            .status()
            .expect("spawn a copy of this binary");
        if !status.success() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {failed:?}");
        ExitCode::FAILURE
    }
}

/// The end-to-end values of one untraced run, in catalog order.
fn measure(workload: &str, seed: u64, seconds: u64, smoke: bool) -> Result<Vec<f64>, String> {
    let out = child(workload, seed, seconds, false, smoke)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let doc: Value = serde_json::from_str(last).map_err(|e| format!("last line: {e:?}"))?;
    END_TO_END
        .iter()
        .map(|(name, ..)| {
            match doc
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
            {
                Some(Value::F64(f)) => Ok(*f),
                Some(Value::U64(u)) => Ok(*u as f64),
                other => Err(format!("{workload}: metric {name} is {other:?}")),
            }
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`; negative when `b`
/// is the better one.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Two sets of `n` runs per workload, interleaved A B A B so that drift
/// on the host lands on both. Run `i` of either set uses seed
/// `seed + i`, so the simulated metrics of the two sets must agree
/// exactly while still varying inside a set, the way the driver's do.
pub fn aa(n: usize, seed: u64, seconds: u64, smoke: bool) -> ExitCode {
    let mut breaches = 0;
    for workload in NAMES {
        // sets[s][metric] = the n values of that metric in set s.
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for i in 0..n as u64 {
            for set in &mut sets {
                match measure(workload, seed + i, seconds, smoke) {
                    Ok(values) => {
                        for (column, v) in set.iter_mut().zip(values) {
                            column.push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!(
            "== {workload}: two sets of {n} runs, seeds {seed}..{}",
            seed + n as u64
        );
        println!(
            "{:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
            "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound"
        );
        for (i, &(name, _unit, better, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][i], &sets[1][i]);
            let (ma, mb) = (median(a), median(b));
            // Either set may play the parent: the gap is the worse way.
            let gap = worsening(better, ma, mb).max(worsening(better, mb, ma));
            let (sa, sb) = (iqr_share(a), iqr_share(b));
            // The driver holds every spread but set-up's to the bound.
            let spread_matters = name != "setup_s";
            let breach = gap > bound || (spread_matters && sa.max(sb) > bound);
            breaches += usize::from(breach);
            println!(
                "{name:<20} {ma:>14.6} {mb:>14.6} {gap:>8.4} {sa:>8.4} {sb:>8.4} {bound:>6.3}{}",
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    if breaches == 0 {
        println!("aa: every metric agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!(
            "aa: {breaches} breach(es); raise the workload's repetitions, do not widen a bound"
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.10);
        assert_eq!(worsening(Better::Lower, 100.0, 90.0), -0.10);
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.10);
        assert_eq!(worsening(Better::Higher, 100.0, 125.0), -0.25);
        assert_eq!(worsening(Better::Higher, 1.0, 1.0), 0.0);
    }
}
