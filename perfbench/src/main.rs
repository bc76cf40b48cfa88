//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out-dir <dir>]`: run one workload and print its metrics. The last
//! line of standard output is the JSON result. Exits 1 if any operation
//! or answer check failed, 2 on bad arguments.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dtrack_perfbench::run::Report;
use dtrack_perfbench::run::{run, RunConfig};
use dtrack_perfbench::workload::Workload;
use dtrack_perfbench::{result_json, table, write_chrome_trace};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = Some(s),
                _ => return Err(format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return Err(format!("bad trace {value}")),
            },
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out_dir,
    })
}

fn write_spans(dir: &Path, path: &Path, report: &Report) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = BufWriter::new(File::create(path)?);
    write_chrome_trace(&report.spans, &mut out)?;
    out.flush()
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}\nworkloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig::standard(args.workload, args.seed, args.seconds, args.trace);
    let report = run(&cfg);
    if let (true, Some(dir)) = (args.trace, &args.out_dir) {
        let path = dir.join(format!(
            "{}-seed{}-spans.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = write_spans(dir, &path, &report) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for failure in &report.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let mut stdout = std::io::stdout().lock();
    let printed = write!(stdout, "{}", table(&report))
        .and_then(|()| writeln!(stdout, "{}", result_json(&report)))
        .and_then(|()| stdout.flush());
    if printed.is_err() || !report.correct {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
