//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --served <path>`:
//! runs one workload and prints its result as the last line of stdout.
//! A traced run also writes its spans to `perfbench/out/`.

use std::process::ExitCode;

use perfbench::report::{parse_args, render, USAGE};
use perfbench::trace::Tracer;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let line = perfbench::run(&args, &tracer).and_then(|outcome| render(&outcome, args.trace));
    if args.trace {
        let path = format!(
            "perfbench/out/{}-seed{}.spans.json",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
