//! The serving workloads: one real TCP session against an `odrsim
//! --serve` child process, driven by `odr_client::run_client`.
//!
//! The server runs in its own process so its CPU time and peak memory
//! can be read from `/proc` apart from the client's decode work. Every
//! wait on the child is bounded: a server that does not print its
//! address, does not exit after its session, or a session that outlives
//! its deadline is killed and the run counts a failure instead of
//! hanging.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use odr_client::{run_client, ClientConfig, ClientOutcome};
use odr_runtime::Regulation;
use odr_serve::wire::{read_message, write_message, Message, SessionConfig, VERSION};

use crate::metrics::{median, percentile, Outcome};
use crate::trace::Tracer;
use crate::{layers, procfs, target_dir, Args};

/// Mean rate of the client's open-loop Poisson input schedule.
const INPUT_RATE_HZ: f64 = 10.0;
/// Tagged frames a run needs so that `mtp_p95_ms` has at least ten
/// samples beyond it.
const MIN_TAGGED: usize = 200;
/// Server start-ups timed per run for `setup_s` (median reported).
const SETUP_PROBES: u32 = 9;
/// Start-ups a traced run times for `client.handshake_ms`.
const TRACED_PROBES: u32 = 3;
/// How long a server may take to print its address, or to exit once
/// its session has departed.
const SERVER_WAIT: Duration = Duration::from_secs(10);
/// Slack past the session length before a session counts as hung.
const SESSION_SLACK: Duration = Duration::from_secs(30);
/// How often the server's memory high-water mark is polled.
const RSS_POLL: Duration = Duration::from_millis(50);

/// The regulation a serving workload runs under.
fn regulation(workload: &str) -> Regulation {
    if workload == "serve-int30" {
        Regulation::Interval { fps: 30.0 }
    } else {
        Regulation::Odr {
            target_fps: Some(30.0),
        }
    }
}

/// The session every serving run requests: 1280x720, default scene and
/// quantisation.
fn session_config(regulation: Regulation) -> SessionConfig {
    SessionConfig {
        width: 1280,
        height: 720,
        regulation,
        ..SessionConfig::default()
    }
}

/// Builds the `odrsim` server binary from the checkout's sources into
/// the current target directory and returns its path.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "-q",
            "--offline",
            "-p",
            "odr-bench",
            "--bin",
            "odrsim",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building odrsim failed ({status})"));
    }
    let path = target_dir().join("release").join("odrsim");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} was not built", path.display()))
    }
}

/// A running `odrsim --serve --exit-after 1` child. Dropping it kills
/// and reaps the process.
struct ServerChild {
    child: Option<Child>,
    pid: String,
    addr: String,
    stderr: mpsc::Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

/// What a server child left behind when it exited.
struct ServerExit {
    cpu_s: f64,
    peak_rss_mb: f64,
}

impl ServerChild {
    /// Starts a server on an ephemeral loopback port and waits for the
    /// address it prints.
    fn spawn(odrsim: &Path, telemetry: Option<&Path>) -> Result<ServerChild, String> {
        let mut cmd = Command::new(odrsim);
        cmd.args(["--serve", "--listen", "127.0.0.1:0", "--exit-after", "1"]);
        if let Some(path) = telemetry {
            cmd.arg("--telemetry").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", odrsim.display()))?;
        let pid = child.id().to_string();
        let (tx, stderr) = mpsc::channel();
        let reader = child.stderr.take().map(|pipe| {
            thread::spawn(move || {
                for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                    if tx.send(line).is_err() {
                        break;
                    }
                }
            })
        });
        let mut server = ServerChild {
            child: Some(child),
            pid,
            addr: String::new(),
            stderr,
            reader,
        };
        let deadline = Instant::now() + SERVER_WAIT;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            match server.stderr.recv_timeout(wait) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("serving on ") {
                        server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        return Ok(server);
                    }
                    eprintln!("odrsim: {line}");
                }
                Err(_) => return Err("server printed no listening address".into()),
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        procfs::peak_rss_mb(&self.pid).unwrap_or(0.0)
    }

    /// Waits (bounded) for the server to exit on its own, reads its CPU
    /// time while it is a zombie, then reaps it.
    fn finish(mut self) -> Result<ServerExit, String> {
        let deadline = Instant::now() + SERVER_WAIT;
        let mut peak_rss_mb: f64 = 0.0;
        let cpu_s = loop {
            match procfs::stat(&self.pid) {
                Some(s) if s.state == 'Z' => break s.cpu_s,
                Some(_) => peak_rss_mb = peak_rss_mb.max(self.peak_rss_mb()),
                None => return Err("server process vanished before it was reaped".into()),
            }
            if Instant::now() > deadline {
                return Err("server did not exit after its session departed; killed".into());
            }
            thread::sleep(Duration::from_millis(2));
        };
        let status = match self.child.take() {
            Some(mut child) => child.wait().map_err(|e| format!("wait: {e}"))?,
            None => return Err("server already reaped".into()),
        };
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let errors: Vec<String> = self.stderr.try_iter().collect();
        if !status.success() {
            return Err(format!(
                "server exited with {status}: {}",
                errors.join("; ")
            ));
        }
        Ok(ServerExit { cpu_s, peak_rss_mb })
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Connects and negotiates `session`; returns the stream once ACCEPT
/// arrived.
fn handshake(addr: &str, session: SessionConfig) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(SERVER_WAIT))
        .map_err(|e| format!("socket: {e}"))?;
    write_message(&mut stream, &Message::Hello { version: VERSION })
        .and_then(|()| write_message(&mut stream, &Message::Config(session)))
        .map_err(|e| format!("handshake: {e}"))?;
    match read_message(&mut stream) {
        Ok(Some(Message::Accept(_))) => Ok(stream),
        Ok(Some(Message::Reject { reason })) => Err(format!("session rejected: {reason}")),
        other => Err(format!("expected ACCEPT, got {other:?}")),
    }
}

/// One timed server start-up: spawn to ACCEPT, then an immediate BYE.
/// Returns (spawn→ACCEPT, connect→ACCEPT) in seconds.
fn probe(
    odrsim: &Path,
    session: SessionConfig,
    id: u32,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let spawned = Instant::now();
    let server = tracer.span("serve", "server start", id, 1, || {
        ServerChild::spawn(odrsim, None)
    })?;
    let connected = Instant::now();
    let mut stream = tracer.span("client", "handshake", id, 1, || {
        handshake(&server.addr, session)
    })?;
    let accepted = Instant::now();
    write_message(&mut stream, &Message::Bye).map_err(|e| format!("bye: {e}"))?;
    loop {
        match read_message(&mut stream) {
            Ok(Some(Message::Bye) | None) => break,
            Ok(Some(_)) => {}
            Err(e) => return Err(format!("draining the departing session: {e}")),
        }
    }
    server.finish()?;
    Ok((
        (accepted - spawned).as_secs_f64(),
        (accepted - connected).as_secs_f64(),
    ))
}

/// One measured session and the server's resource use.
struct Session {
    outcome: ClientOutcome,
    server_cpu_s: f64,
    peak_rss_mb: f64,
}

impl Session {
    fn displayed(&self) -> u64 {
        self.outcome.report.frames_displayed
    }

    fn mtp_ms(&self, p: f64) -> f64 {
        percentile(self.outcome.report.mtp_ms.samples(), p)
    }

    fn cpu_ms_per_frame(&self) -> f64 {
        self.server_cpu_s * 1e3 / self.displayed().max(1) as f64
    }

    /// The serving correctness gate: the server departed with a report
    /// and the client displayed every frame the server sent.
    fn verify(&self) -> Result<(), String> {
        let Some(departure) = self.outcome.departure else {
            return Err("no DepartureReport from the server".into());
        };
        if departure.frames_sent != self.displayed() {
            return Err(format!(
                "client displayed {} frames, server sent {}",
                self.displayed(),
                departure.frames_sent
            ));
        }
        if self.displayed() == 0 {
            return Err("no frames displayed".into());
        }
        Ok(())
    }
}

/// Runs one client session against a fresh server, polling the
/// server's memory while it runs. The session is killed and reported as
/// an error if it outlives its length by [`SESSION_SLACK`].
fn session(
    odrsim: &Path,
    client: &ClientConfig,
    telemetry: Option<&Path>,
    id: u32,
    tracer: &mut Tracer,
) -> Result<Session, String> {
    let server = ServerChild::spawn(odrsim, telemetry)?;
    let cfg = ClientConfig {
        connect: server.addr.clone(),
        ..client.clone()
    };
    let deadline = Instant::now() + client.duration + SESSION_SLACK;
    let span = tracer.begin("client", "run_client", id);
    let (tx, rx) = mpsc::channel();
    let client_thread = thread::spawn(move || {
        let _ = tx.send(run_client(&cfg));
    });
    let mut peak_rss_mb: f64 = 0.0;
    let result = loop {
        match rx.recv_timeout(RSS_POLL) {
            Ok(result) => break Some(result),
            Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => {
                peak_rss_mb = peak_rss_mb.max(server.peak_rss_mb());
            }
            Err(_) => break None,
        }
    };
    tracer.end(span, 1);
    let Some(result) = result else {
        drop(server); // kills the server, which ends the client's reads
        return Err(match client_thread.join() {
            Ok(()) => "session exceeded its deadline; server killed".into(),
            Err(_) => "client thread panicked".into(),
        });
    };
    if client_thread.join().is_err() {
        return Err("client thread panicked".into());
    }
    let outcome = result.map_err(|e| format!("client: {e}"))?;
    let exit = server.finish()?;
    Ok(Session {
        outcome,
        server_cpu_s: exit.cpu_s,
        peak_rss_mb: peak_rss_mb.max(exit.peak_rss_mb),
    })
}

/// Inputs the client's schedule holds for a session of `duration`:
/// the same seeded exponential gaps `run_client` sleeps through.
fn scheduled_inputs(seed: u64, duration: Duration) -> u64 {
    let mut rng = odr_simtime::Rng::new(seed);
    let mut t = 0.0;
    let mut n = 0;
    loop {
        t += rng.exponential(INPUT_RATE_HZ).min(3600.0);
        if t >= duration.as_secs_f64() {
            return n;
        }
        n += 1;
    }
}

/// Reports the generator audit and the tagged-frame count of a session.
fn audit(out: &mut Outcome, s: &Session, client: &ClientConfig) -> usize {
    let tagged = s.outcome.report.mtp_ms.count();
    let scheduled = scheduled_inputs(client.seed, client.duration);
    out.note(format!(
        "inputs sent {} of {scheduled} scheduled; {tagged} tagged frames",
        s.outcome.report.inputs
    ));
    tagged
}

/// Runs a serving workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let odrsim = build_server()?;
    let regulation = regulation(&args.workload);
    let session_cfg = session_config(regulation);
    let mut out = Outcome::default();

    let probes = if args.trace {
        TRACED_PROBES
    } else {
        SETUP_PROBES
    };
    let mut setups = Vec::new();
    let mut handshakes = Vec::new();
    for id in 0..probes {
        let result = probe(&odrsim, session_cfg, id, tracer);
        if let Ok((setup, handshake)) = result {
            setups.push(setup);
            handshakes.push(handshake);
        }
        out.check(result.is_ok(), || {
            format!("start-up {id}: {}", result.err().unwrap_or_default())
        });
    }

    let client = ClientConfig {
        connect: String::new(),
        session: session_cfg,
        duration: args.seconds,
        input_rate_hz: INPUT_RATE_HZ,
        seed: args.seed,
    };
    if args.trace {
        traced(args, tracer, &odrsim, &client, probes, &mut out);
        out.layer("client.handshake_ms", median(&handshakes) * 1e3);
        return Ok(out);
    }

    let measured = session(&odrsim, &client, None, probes, tracer);
    let verdict = measured
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|s| s.verify());
    out.check(verdict.is_ok(), || {
        format!("session: {}", verdict.clone().err().unwrap_or_default())
    });
    if let Ok(s) = &measured {
        let tagged = audit(&mut out, s, &client);
        if tagged < MIN_TAGGED {
            out.note(format!(
                "WARNING: {tagged} tagged frames (< {MIN_TAGGED}): mtp_p95_ms has fewer than ten samples beyond it"
            ));
        }
        out.e2e(
            "throughput_per_s",
            "client_fps",
            s.outcome.report.client_fps(),
            "frames/s",
        );
        let samples = format!("not bounded; {tagged} tagged frames");
        out.figure("mtp_p50_ms", s.mtp_ms(50.0), "ms", &samples);
        out.figure("mtp_p95_ms", s.mtp_ms(95.0), "ms", &samples);
        out.e2e(
            "cpu_ms_per_op",
            "server_cpu_ms_per_frame",
            s.cpu_ms_per_frame(),
            "ms",
        );
        if let Some(d) = s.outcome.departure {
            out.figure(
                "render_per_display",
                d.frames_rendered as f64 / s.displayed().max(1) as f64,
                "ratio",
                &format!(
                    "{} rendered / {} displayed",
                    d.frames_rendered,
                    s.displayed()
                ),
            );
        }
        out.e2e("peak_rss_mb", "peak_rss_mb", s.peak_rss_mb, "MB");
    }
    out.e2e("setup_s", "setup_s", median(&setups), "s");
    Ok(out)
}

/// The traced run: half the time untraced, half with the server's
/// telemetry on (their difference is the tracing overhead), then the
/// per-layer calls at this session's parameters.
fn traced(
    args: &Args,
    tracer: &mut Tracer,
    odrsim: &Path,
    client: &ClientConfig,
    first_id: u32,
    out: &mut Outcome,
) {
    let half = ClientConfig {
        duration: (args.seconds / 2).max(Duration::from_secs(1)),
        ..client.clone()
    };
    let telemetry_path = target_dir().join("perfbench").join(format!(
        "telemetry-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    if let Some(dir) = telemetry_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let plain = session(odrsim, &half, None, first_id, tracer);
    let traced = session(odrsim, &half, Some(&telemetry_path), first_id + 1, tracer);
    for (label, s) in [("untraced", &plain), ("traced", &traced)] {
        let verdict = s.as_ref().map_err(Clone::clone).and_then(|s| s.verify());
        out.check(verdict.is_ok(), || {
            format!(
                "{label} session: {}",
                verdict.clone().err().unwrap_or_default()
            )
        });
    }
    if let (Ok(plain), Ok(traced)) = (&plain, &traced) {
        out.layer(
            "obs.trace_overhead.cpu_ms_per_frame",
            traced.cpu_ms_per_frame() - plain.cpu_ms_per_frame(),
        );
        out.layer(
            "obs.trace_overhead.mtp_p50_ms",
            traced.mtp_ms(50.0) - plain.mtp_ms(50.0),
        );
    }
    if let Ok(s) = &traced {
        let tagged = audit(out, s, &half);
        out.layer("client.inputs_sent", s.outcome.report.inputs as f64);
        out.layer(
            "client.inputs_scheduled",
            scheduled_inputs(half.seed, half.duration) as f64,
        );
        out.layer("client.tagged_frames", tagged as f64);
        out.layer(
            "runtime.render_per_display",
            s.outcome.report.frames_rendered as f64 / s.displayed().max(1) as f64,
        );
        match (
            std::fs::read_to_string(&telemetry_path),
            s.outcome.departure,
        ) {
            (Ok(text), Some(departure)) => layers::server_telemetry(out, &text, &departure),
            (Err(e), _) => out.check(false, || {
                format!("telemetry {}: {e}", telemetry_path.display())
            }),
            (_, None) => {}
        }
    }
    let id = first_id + 2;
    let payload = layers::raster_codec(out, tracer, &client.session, id);
    layers::swap_handoff(out, tracer, id);
    layers::regulator_step(out, tracer, client.session.regulation, id);
    layers::wire(out, tracer, &payload, id);
    layers::socket_hop(out, tracer, &payload, id);
    layers::admission(out, tracer, client.session.regulation, id);
    layers::obs_record(out, tracer, id);
}
