//! `dlperf-serve` — the prediction service daemon.
//!
//! Speaks the newline-delimited JSON protocol of `dlperf_serve::api` over
//! three interchangeable transports:
//!
//! * **stdio** (default): one request line on stdin, one response line on
//!   stdout; EOF exits cleanly. This is the transport the chaos CI job
//!   replays corpora through.
//! * **TCP** (`--listen HOST:PORT`): thread per connection.
//! * **Unix socket** (`--uds PATH`, Unix only): thread per connection.
//!
//! ```text
//! dlperf-serve --models dlrm-default,dcn --devices v100,p100 \
//!              --workers 4 --queue 256 --deadline-ms 2000
//! echo '{"id": 1, "op": {"Predict": {"model": "dlrm-default", "batch": 2048, "device": "v100"}}}' | dlperf-serve
//! ```
//!
//! Set `DLPERF_SELF_TRACE=/path.json` to record the server's own spans
//! through `dlperf-obs` and write a Chrome trace the `trace` crate can
//! re-ingest on exit.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use dlperf_core::pipeline::Pipeline;
use dlperf_faults::FaultPlan;
use dlperf_gpusim::DeviceSpec;
use dlperf_kernels::CalibrationEffort;
use dlperf_models::zoo;
use dlperf_serve::api::{read_bounded_line, LineRead, MAX_DEADLINE_MS};
use dlperf_serve::{Server, ServerConfig};
use dlperf_trace::ChromeTraceSink;

struct Opts {
    models: Vec<String>,
    devices: Vec<String>,
    effort: CalibrationEffort,
    listen: Option<String>,
    uds: Option<String>,
    chaos: Option<FaultPlan>,
    cfg: ServerConfig,
}

const USAGE: &str = "\
dlperf-serve: overload-safe prediction-as-a-service

USAGE:
    dlperf-serve [OPTIONS]

OPTIONS:
    --models a,b,c          Catalog models to serve [default: dlrm-default]
    --devices a,b,c         Devices to calibrate and serve [default: v100]
    --effort quick|full     Calibration effort [default: quick]
    --listen HOST:PORT      Also serve TCP connections
    --uds PATH              Also serve a Unix socket (Unix only)
    --workers N             Worker threads [default: 4]
    --queue N               Admission queue capacity [default: 256]
    --deadline-ms F         Default per-request deadline [default: 2000]
    --latency-budget-ms F   Admission estimated-wait budget [default: 10000]
    --memo-cap N            Per-device kernel-memo capacity [default: 262144]
    --prepared-cap N        Per-model prepared-graph capacity [default: 256]
    --base-batch N          Batch the catalog graphs are built at [default: 2048]
    --chaos SEED,P_PANIC,P_KILL,P_HANG
                            Inject worker faults (testing/drills)
    -h, --help              This help

Requests are newline-delimited JSON on stdin; responses on stdout.
Set DLPERF_SELF_TRACE=/path.json to record a self-trace.";

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        models: vec!["dlrm-default".to_string()],
        devices: vec!["v100".to_string()],
        effort: CalibrationEffort::Quick,
        listen: None,
        uds: None,
        chaos: None,
        cfg: ServerConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value (see --help)"))
        };
        match arg.as_str() {
            "--models" => opts.models = split_list(&value("--models")?),
            "--devices" => opts.devices = split_list(&value("--devices")?),
            "--effort" => {
                opts.effort = match value("--effort")?.as_str() {
                    "quick" => CalibrationEffort::Quick,
                    "full" => CalibrationEffort::Full,
                    other => return Err(format!("unknown effort `{other}` (quick|full)")),
                }
            }
            "--listen" => opts.listen = Some(value("--listen")?),
            "--uds" => opts.uds = Some(value("--uds")?),
            "--workers" => opts.cfg.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue" => opts.cfg.queue_capacity = parse_num(&value("--queue")?, "--queue")?,
            "--deadline-ms" => {
                let ms: f64 = parse_num(&value("--deadline-ms")?, "--deadline-ms")?;
                if !ms.is_finite() || !(1.0..=MAX_DEADLINE_MS).contains(&ms) {
                    return Err(format!(
                        "--deadline-ms must be in [1, {MAX_DEADLINE_MS:.0}]"
                    ));
                }
                opts.cfg.default_deadline = Duration::from_secs_f64(ms / 1000.0);
            }
            "--latency-budget-ms" => {
                opts.cfg.latency_budget_ms =
                    parse_num(&value("--latency-budget-ms")?, "--latency-budget-ms")?;
            }
            "--memo-cap" => {
                opts.cfg.memo_capacity = parse_num(&value("--memo-cap")?, "--memo-cap")?;
            }
            "--prepared-cap" => {
                opts.cfg.prepared_capacity =
                    parse_num(&value("--prepared-cap")?, "--prepared-cap")?;
            }
            "--base-batch" => {
                opts.cfg.base_batch = parse_num(&value("--base-batch")?, "--base-batch")?;
            }
            "--chaos" => {
                let spec = value("--chaos")?;
                let parts: Vec<&str> = spec.split(',').collect();
                if parts.len() != 4 {
                    return Err("--chaos wants SEED,P_PANIC,P_KILL,P_HANG".to_string());
                }
                let seed: u64 = parse_num(parts[0], "--chaos seed")?;
                let p: f64 = parse_num(parts[1], "--chaos p_panic")?;
                let k: f64 = parse_num(parts[2], "--chaos p_kill")?;
                let h: f64 = parse_num(parts[3], "--chaos p_hang")?;
                opts.chaos = Some(FaultPlan::healthy(seed).with_worker_faults(p, k, h));
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

fn split_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("{flag}: cannot parse `{s}`"))
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dlperf-serve: {e}");
            std::process::exit(2);
        }
    };

    let self_trace = std::env::var("DLPERF_SELF_TRACE").ok();
    let sink = self_trace.as_ref().map(|_| {
        let sink = ChromeTraceSink::install("dlperf-serve", "host");
        dlperf_obs::enable();
        sink
    });

    // Analysis track, once at boot: calibrate one pipeline per device
    // against the served catalog graphs.
    let workloads: Vec<_> = opts
        .models
        .iter()
        .map(|m| {
            zoo::build(m, opts.cfg.base_batch).unwrap_or_else(|e| {
                eprintln!("dlperf-serve: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    let mut pipelines = Vec::new();
    for name in &opts.devices {
        let Some(device) = DeviceSpec::by_name(name) else {
            eprintln!("dlperf-serve: unknown device `{name}`");
            std::process::exit(2);
        };
        eprintln!("calibrating {} ...", device.name);
        pipelines.push(Pipeline::analyze(&device, &workloads, opts.effort, 15, 11));
    }

    let model_names: Vec<&str> = opts.models.iter().map(String::as_str).collect();
    let server = match Server::start(pipelines, &model_names, opts.cfg.clone(), opts.chaos) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("dlperf-serve: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "serving {} on {} (workers {}, queue {}, deadline {:?})",
        opts.models.join(","),
        server.devices().join(","),
        opts.cfg.workers,
        opts.cfg.queue_capacity,
        opts.cfg.default_deadline,
    );

    if let Some(addr) = &opts.listen {
        match std::net::TcpListener::bind(addr) {
            Ok(listener) => {
                eprintln!("listening on tcp {addr}");
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    for conn in listener.incoming().flatten() {
                        let server = Arc::clone(&server);
                        std::thread::spawn(move || serve_stream(&server, conn));
                    }
                });
            }
            Err(e) => {
                eprintln!("dlperf-serve: cannot bind {addr}: {e}");
                std::process::exit(2);
            }
        }
    }

    #[cfg(unix)]
    if let Some(path) = &opts.uds {
        std::fs::remove_file(path).ok();
        match std::os::unix::net::UnixListener::bind(path) {
            Ok(listener) => {
                eprintln!("listening on unix {path}");
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    for conn in listener.incoming().flatten() {
                        let server = Arc::clone(&server);
                        std::thread::spawn(move || serve_stream(&server, conn));
                    }
                });
            }
            Err(e) => {
                eprintln!("dlperf-serve: cannot bind {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    #[cfg(not(unix))]
    if opts.uds.is_some() {
        eprintln!("dlperf-serve: --uds is only supported on Unix");
        std::process::exit(2);
    }

    // The stdio transport doubles as the lifetime anchor: EOF on stdin is
    // a graceful shutdown, whatever the listeners are doing.
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = stdin.lock();
    loop {
        let reply = match read_bounded_line(&mut reader) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized) => server.reject_line("request line exceeds size cap"),
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                server.submit_json(&line)
            }
        };
        let mut out = stdout.lock();
        if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }

    let stats = server.stats();
    eprintln!(
        "shutting down: {} completed, {} shed, {} deadline-expired, {} panics contained",
        stats.completed,
        stats.shed_queue + stats.shed_latency,
        stats.deadline_expired,
        stats.panics,
    );
    if let (Some(path), Some(sink)) = (self_trace, sink) {
        dlperf_obs::disable();
        dlperf_obs::flush();
        dlperf_obs::clear_sinks();
        match sink.write_json(&path) {
            Ok(()) => eprintln!("self-trace written to {path}"),
            Err(e) => eprintln!("self-trace write failed: {e}"),
        }
    }
}

/// Runs the line protocol over one bidirectional byte stream. Lines are
/// read through the bounded reader, so a peer streaming gigabytes with no
/// newline gets a 400 and a drain, never an unbounded buffer.
fn serve_stream<S: std::io::Read + Write>(server: &Server, stream: S)
where
    for<'a> &'a S: std::io::Read + Write,
{
    let mut reader = std::io::BufReader::new(&stream);
    let mut writer = &stream;
    loop {
        let reply = match read_bounded_line(&mut reader) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized) => server.reject_line("request line exceeds size cap"),
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                server.submit_json(&line)
            }
        };
        if writeln!(writer, "{reply}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}
