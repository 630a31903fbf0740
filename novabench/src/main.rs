//! `novabench --workload <mcnc|synth|serve> --seed <n> --seconds <s>
//! --trace <0|1>`: runs one workload and prints its metrics. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it are the environment stamp
//! and a human-readable table. Exits 1 when the correctness gate finds a
//! wrong output and 2 on a usage error.

use nova_trace::json::Json;
use novabench::{declared, result_line, sys, Params, FAIL_SHARE};
use std::process::ExitCode;

const USAGE: &str =
    "usage: novabench --workload <mcnc|synth|serve> --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, p) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("novabench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sheet = novabench::run(&workload, &p);

    let mut env = vec![
        ("schema".to_string(), Json::str("novabench/1")),
        ("workload".to_string(), Json::str(&workload)),
        ("seed".to_string(), Json::uint(p.seed)),
        ("seconds".to_string(), Json::Float(p.seconds)),
        ("trace".to_string(), Json::Bool(p.trace)),
        ("nproc".to_string(), Json::uint(sys::nproc() as u64)),
        ("commit".to_string(), Json::str(sys::git_commit())),
        ("rustc".to_string(), Json::str(sys::rustc_version())),
        ("profile".to_string(), Json::str(sys::profile())),
        (
            "dispatch_tier".to_string(),
            Json::str(espresso::dispatch_tier().name()),
        ),
    ];
    env.extend(sheet.stamp.iter().map(|(k, v)| (k.clone(), Json::str(v))));
    println!("# env {}", Json::Obj(env).to_compact());
    for f in &sheet.failures {
        println!("# FAILED {f}");
    }
    for (name, value, unit) in declared(&sheet, p.trace) {
        println!("# {name:<32} {value:>16.6} {unit}");
    }
    if !p.trace {
        let share = sheet.failures.len() as f64 / sheet.attempted.max(1) as f64;
        println!("# {:<32} {share:>16.6} {}", FAIL_SHARE.0, FAIL_SHARE.1);
    }
    println!("{}", result_line(&sheet, p.trace).to_compact());
    if sheet.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn parse(args: &[String]) -> Result<(String, Params), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "mcnc" | "synth" | "serve" => workload = Some(value.clone()),
                _ => return Err(bad()),
            },
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    ))
}
