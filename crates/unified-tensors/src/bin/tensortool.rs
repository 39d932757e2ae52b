//! `tensortool` — command-line front end for the unified sparse tensor
//! library. All logic lives in `unified_tensors::cli`; this file only parses
//! arguments.

use std::path::Path;
use unified_tensors::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => print!("{output}"),
        Err(message) => {
            eprintln!("error: {message}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    let parse_usize =
        |s: &String, what: &str| s.parse::<usize>().map_err(|_| format!("bad {what} `{s}`"));
    let parse_rank = |s: &String| match parse_usize(s, "rank") {
        Ok(0) => Err("rank must be at least 1".to_string()),
        other => other,
    };
    match command {
        "info" => {
            let [_, path] = args else {
                return Err("info needs <file.tns>".into());
            };
            let tensor = cli::load(Path::new(path)).map_err(|e| e.to_string())?;
            Ok(cli::info(&tensor))
        }
        "generate" => {
            let [_, kind, nnz, out] = args else {
                return Err("generate needs <kind> <nnz> <out.tns>".into());
            };
            let nnz = parse_usize(nnz, "nnz")?;
            cli::generate(kind, nnz, Path::new(out)).map_err(|e| e.to_string())
        }
        "spttm" | "mttkrp" | "bench" | "certify" => {
            let (path, mode, rank, out) = match args {
                [_, path, mode, rank] => (path, mode, rank, None),
                [_, path, mode, rank, out] if command == "certify" => {
                    (path, mode, rank, Some(Path::new(out.as_str())))
                }
                _ => return Err(format!("{command} needs <file.tns> <mode> <rank>")),
            };
            let tensor = cli::load(Path::new(path)).map_err(|e| e.to_string())?;
            let mode = parse_usize(mode, "mode")?
                .checked_sub(1)
                .ok_or("modes are 1-based")?;
            let rank = parse_rank(rank)?;
            let result = match command {
                "spttm" => cli::spttm(&tensor, mode, rank),
                "mttkrp" => cli::mttkrp(&tensor, mode, rank),
                "certify" => cli::certify(&tensor, mode, rank, out),
                _ => cli::bench(&tensor, mode, rank),
            };
            result.map_err(|e| e.to_string())
        }
        "cp" => {
            let [_, path, rank, iters] = args else {
                return Err("cp needs <file.tns> <rank> <iterations>".into());
            };
            let tensor = cli::load(Path::new(path)).map_err(|e| e.to_string())?;
            let rank = parse_rank(rank)?;
            let iters = parse_usize(iters, "iterations")?;
            cli::cp(&tensor, rank, iters).map_err(|e| e.to_string())
        }
        "preprocess" => {
            let [_, file, op, mode, out] = args else {
                return Err("preprocess needs <file.tns> <op> <mode> <out.fcoo>".into());
            };
            let tensor = cli::load(Path::new(file)).map_err(|e| e.to_string())?;
            let mode = parse_usize(mode, "mode")?
                .checked_sub(1)
                .ok_or("modes are 1-based")?;
            cli::preprocess(&tensor, op, mode, Path::new(out)).map_err(|e| e.to_string())
        }
        "run" => {
            let [_, file, rank] = args else {
                return Err("run needs <file.fcoo> <rank>".into());
            };
            let rank = parse_rank(rank)?;
            cli::run_cached(Path::new(file), rank).map_err(|e| e.to_string())
        }
        "sanitize" => {
            let [_, file, op, mode, rank] = args else {
                return Err("sanitize needs <file.tns> <op> <mode> <rank>".into());
            };
            let tensor = cli::load(Path::new(file)).map_err(|e| e.to_string())?;
            let mode = parse_usize(mode, "mode")?
                .checked_sub(1)
                .ok_or("modes are 1-based")?;
            let rank = parse_rank(rank)?;
            cli::sanitize(&tensor, op, mode, rank).map_err(|e| e.to_string())
        }
        "workload" => {
            let [_, requests, seed, out] = args else {
                return Err("workload needs <requests> <seed> <out.txt>".into());
            };
            let requests = parse_usize(requests, "request count")?;
            let seed = seed
                .parse::<u64>()
                .map_err(|_| format!("bad seed `{seed}`"))?;
            cli::workload_gen(requests, seed, Path::new(out)).map_err(|e| e.to_string())
        }
        "serve" => {
            let mut rest: Vec<&String> = args[1..].iter().collect();
            let verify = rest.iter().any(|a| a.as_str() == "--verify");
            rest.retain(|a| a.as_str() != "--verify");
            let (spec, plan_dir) = match rest.as_slice() {
                [spec] => (spec, None),
                [spec, dir] => (spec, Some(Path::new(dir.as_str()))),
                _ => return Err("serve needs <workload.txt|synthetic:N:SEED> [plan-dir]".into()),
            };
            cli::serve(spec, plan_dir, verify).map_err(|e| e.to_string())
        }
        "profile" => {
            let (spec, trace_path) = match &args[1..] {
                [spec] => (spec, None),
                [spec, path] => (spec, Some(Path::new(path.as_str()))),
                _ => {
                    return Err("profile needs <workload.txt|synthetic:N:SEED> [trace.json]".into())
                }
            };
            cli::profile(spec, trace_path).map_err(|e| e.to_string())
        }
        "golden" => {
            let bless = match &args[1..] {
                [] => false,
                [flag] if flag.as_str() == "--bless" => true,
                _ => return Err("golden takes only an optional --bless".into()),
            };
            cli::golden(bless).map_err(|e| e.to_string())
        }
        "chaos" => {
            let [_, spec, schedule, seed] = args else {
                return Err("chaos needs <workload.txt|synthetic:N:SEED> <schedule> <seed>".into());
            };
            let seed = seed
                .parse::<u64>()
                .map_err(|_| format!("bad seed `{seed}`"))?;
            cli::chaos(spec, schedule, seed).map_err(|e| e.to_string())
        }
        "oocbench" => {
            let (out, nnz) = match &args[1..] {
                [] => (None, 20_000),
                [path] => (Some(Path::new(path.as_str())), 20_000),
                [path, nnz] => (Some(Path::new(path.as_str())), parse_usize(nnz, "nnz")?),
                _ => return Err("oocbench takes [out.json] [nnz]".into()),
            };
            cli::oocbench(out, nnz).map_err(|e| e.to_string())
        }
        "saturate" => {
            let out = match &args[1..] {
                [] => None,
                [path] => Some(Path::new(path.as_str())),
                _ => return Err("saturate takes only an optional [out.json]".into()),
            };
            cli::saturate(out).map_err(|e| e.to_string())
        }
        "modelcheck" => {
            let [_] = args else {
                return Err("modelcheck takes no arguments".into());
            };
            cli::modelcheck().map_err(|e| e.to_string())
        }
        "help" | "--help" | "-h" => Ok(cli::USAGE.to_string()),
        other => Err(format!("unknown command `{other}`")),
    }
}
