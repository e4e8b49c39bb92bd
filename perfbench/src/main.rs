//! `pi2-perfbench --workload <explore|generate|serve> --seed <n>
//! --seconds <s> --trace <0|1>`: run one workload and print one JSON
//! result line (end-to-end metrics untraced, per-layer metrics traced).

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !pi2_perfbench::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", pi2_perfbench::WORKLOADS.join(", ")));
    }
    Ok(args)
}

/// One malloc arena for the whole process. With glibc's default of one
/// arena per thread, serve's peak RSS jumped between about 41 and 56 MiB
/// from run to run, depending on which thread's arena grew; with one arena
/// it stayed within about 4%.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only changes allocator tuning, and no other thread
    // exists yet.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pi2-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", pi2_perfbench::host_info());
    let report = if args.trace {
        let spans = std::path::Path::new(".bench_work").join("spans");
        pi2_perfbench::traced(args.seed, args.seconds, Some(&spans))
    } else {
        match pi2_perfbench::run_untraced(&args.workload, args.seed, args.seconds) {
            Some(r) => r,
            None => return ExitCode::from(2),
        }
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
