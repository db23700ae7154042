//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's input from the seed in a child process (so
//! the generator's memory stays out of the peak-memory figure), runs the
//! workload against the generated text file, checks every output, and
//! prints one JSON object as the last line of standard output. Exits
//! non-zero, printing no result, if anything fails.

use grazelle_perfbench::host::CountingAlloc;
use grazelle_perfbench::inputs::{write_input, Workload};
use grazelle_perfbench::{run, Ctx};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Internal: generate the input into this file and exit.
    generate: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut generate) = (false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, got {t}")),
                })
            }
            "--tiny" => tiny = true,
            "--generate" => generate = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        tiny,
        generate,
    })
}

/// Removes the generated input when the run ends, however it ends.
struct TempInput(PathBuf);

impl Drop for TempInput {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Generates the input in a child process and waits for it.
fn generate_input(args: &Args, path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--generate")
        .arg(path);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let status = cmd.status().map_err(|e| format!("input generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generator exited with {status}"))
    }
}

fn main_inner() -> Result<String, String> {
    let args = parse_args()?;
    if let Some(path) = &args.generate {
        write_input(args.workload, args.seed, args.tiny, path)?;
        return Ok(String::new());
    }
    // Scratch space beside the executable, inside the build directory.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perfbench-inputs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let input = TempInput(dir.join(format!(
        "{}-{}-{}.txt",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    generate_input(&args, &input.0)?;
    let threads = std::thread::available_parallelism()
        .map(|p| p.get().min(2))
        .unwrap_or(1);
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: args.tiny,
        threads,
        input: input.0.clone(),
    };
    let report = run(&ctx)?;
    eprintln!(
        "perfbench: {} seed {} threads {} of {} cores: {} attempted, {} failed, {} wrong",
        ctx.workload.name(),
        ctx.seed,
        threads,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        report.attempted,
        report.failed,
        report.wrong
    );
    report.to_json(ctx.trace)
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    match main_inner() {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
