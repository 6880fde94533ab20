//! One admitted session: the ODR pipeline with a socket transport.
//!
//! The server-side stages are exactly the runtime's
//! ([`odr_runtime::stages`]) — the app render loop and the proxy
//! encode/regulate loop, connected by the same Mul-Buf1/Mul-Buf2
//! [`SyncQueue`]s — with the in-process network/client threads replaced
//! by two framing tasks:
//!
//! * the **writer** (this thread) pops Mul-Buf2 and writes
//!   `FrameHeader` + payload to the socket. `write_all` on a full socket
//!   blocks, which stalls the pop, which fills Mul-Buf2, which stalls
//!   (ODR) or overwrites (NoReg) upstream — socket backpressure maps
//!   onto the buffers' [`FullPolicy`] and is never absorbed by an
//!   unbounded queue;
//! * the **reader** decodes client messages incrementally, forwarding
//!   [`InputEvent`]s into the app stage (the event itself is the frame
//!   tag, so the client's send timestamp rides through to the frame
//!   header and MtP is measured entirely on the client's clock) and
//!   initiating shutdown on BYE, EOF, or a protocol violation.
//!
//! Shutdown is a cascade: whoever stops first (reader on BYE/EOF, writer
//! on a dead socket, the server on drain) sets the session stop flag and
//! closes Mul-Buf1; the app exits on the closed queue, the proxy drains
//! and closes Mul-Buf2, the writer drains and exits. The departing
//! session then writes its [`DepartureReport`] and a final BYE.
//!
//! [`SyncQueue`]: odr_core::SyncQueue
//! [`FullPolicy`]: odr_core::FullPolicy

use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use odr_core::{OdrError, OdrResult, QueueObs, SyncQueue};
use odr_obs::{track, MonoClock};
use odr_runtime::stages::{
    make_recorder, spawn_app_stage, spawn_proxy_stage, AppStage, EncodedFrame, MulBuf1, ProxyStage,
    RawFrame,
};

use crate::telemetry::Telemetry;
use crate::wire::{
    decode, write_frame, write_message, DepartureReport, FrameHeader, InputEvent, Message,
    SessionConfig, FLAG_PRIORITY, FLAG_TAGGED,
};

/// Read-poll granularity of the reader task: how quickly a session
/// notices a server-wide stop when the client is idle.
const READ_POLL: Duration = Duration::from_millis(50);

/// Writer-side socket timeout: a client that stops reading stalls the
/// pipeline (that is the backpressure contract), but a *dead* client
/// must not hold the session forever — after this long the write errors
/// and the session drains.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the handshake (HELLO + CONFIG) may take before the
/// connection is dropped.
pub(crate) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Reads the client's opening HELLO + CONFIG, with a read timeout so a
/// silent connection cannot pin the per-connection thread.
pub(crate) fn handshake(stream: &mut TcpStream) -> OdrResult<SessionConfig> {
    stream
        .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
        .map_err(|e| OdrError::io("socket", e))?;
    match crate::wire::read_message(stream)? {
        Some(Message::Hello { .. }) => {}
        Some(other) => {
            return Err(OdrError::protocol(format!(
                "expected HELLO, got {other:?}"
            )))
        }
        None => return Err(OdrError::protocol("connection closed before HELLO")),
    }
    match crate::wire::read_message(stream)? {
        Some(Message::Config(cfg)) => Ok(cfg),
        Some(other) => Err(OdrError::protocol(format!(
            "expected CONFIG, got {other:?}"
        ))),
        None => Err(OdrError::protocol("connection closed before CONFIG")),
    }
}

/// Incremental reader loop: decodes messages from `stream` as bytes
/// arrive (tolerating read timeouts mid-message), forwards inputs, and
/// triggers the shutdown cascade on BYE/EOF/violation/server stop.
#[allow(clippy::too_many_arguments)]
fn reader_loop(
    mut stream: TcpStream,
    buf1: Arc<SyncQueue<RawFrame<InputEvent>>>,
    input_tx: mpsc::Sender<InputEvent>,
    inputs_n: Arc<AtomicU64>,
    session_stop: Arc<AtomicBool>,
    server_stop: Arc<AtomicBool>,
) {
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    'outer: loop {
        if session_stop.load(Ordering::Relaxed) || server_stop.load(Ordering::Relaxed) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // EOF: client went away.
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                loop {
                    match decode(&pending[consumed..]) {
                        Ok(Some((Message::Input(ev), used))) => {
                            consumed += used;
                            inputs_n.fetch_add(1, Ordering::Relaxed);
                            if input_tx.send(ev).is_err() {
                                break 'outer;
                            }
                        }
                        Ok(Some((Message::Bye, _))) => break 'outer,
                        Ok(Some((_, _))) | Err(_) => break 'outer, // protocol violation
                        Ok(None) => break,
                    }
                }
                pending.drain(..consumed);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Start the shutdown cascade: stop the app loop and unblock any
    // publisher stuck on a full Mul-Buf1.
    session_stop.store(true, Ordering::Relaxed);
    buf1.close();
}

/// Runs one admitted session to completion on the calling thread.
///
/// Returns the session's final accounting (also written to the client as
/// a REPORT message before the closing BYE).
///
/// # Errors
///
/// [`OdrError::Io`] when socket setup fails, [`OdrError::Thread`] when a
/// stage thread panics.
pub fn run_session(
    mut stream: TcpStream,
    session: u32,
    cfg: SessionConfig,
    server_stop: Arc<AtomicBool>,
    obs: bool,
    telemetry: Option<&Telemetry>,
) -> OdrResult<DepartureReport> {
    let start = Instant::now();
    let clock = MonoClock::start();
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(|e| OdrError::io("socket", e))?;
    stream
        .set_write_timeout(Some(WRITE_TIMEOUT))
        .map_err(|e| OdrError::io("socket", e))?;
    let reader_stream = stream.try_clone().map_err(|e| OdrError::io("socket", e))?;

    let rec_app = make_recorder(obs);
    let rec_proxy = make_recorder(obs);
    let rec_queues = make_recorder(obs);
    if let Some(tele) = telemetry {
        tele.register(Arc::clone(&rec_app));
        tele.register(Arc::clone(&rec_proxy));
        tele.register(Arc::clone(&rec_queues));
    }

    let buf1: MulBuf1<InputEvent> = MulBuf1::new(
        cfg.regulation,
        QueueObs {
            recorder: Arc::clone(&rec_queues),
            track: track::BUF1,
            clock,
        },
    );
    let buf2: Arc<SyncQueue<EncodedFrame<InputEvent>>> =
        Arc::new(SyncQueue::new_blocking(1).with_obs(QueueObs {
            recorder: Arc::clone(&rec_queues),
            track: track::BUF2,
            clock,
        }));
    let (input_tx, input_rx) = mpsc::channel::<InputEvent>();

    let session_stop = Arc::new(AtomicBool::new(false));
    let rendered = Arc::new(AtomicU64::new(0));
    let encoded = Arc::new(AtomicU64::new(0));
    let priority_n = Arc::new(AtomicU64::new(0));
    let inputs_n = Arc::new(AtomicU64::new(0));

    let reader: JoinHandle<()> = {
        let buf1 = Arc::clone(&buf1.frames);
        let inputs_n = Arc::clone(&inputs_n);
        let session_stop = Arc::clone(&session_stop);
        let server_stop = Arc::clone(&server_stop);
        thread::spawn(move || {
            reader_loop(
                reader_stream,
                buf1,
                input_tx,
                inputs_n,
                session_stop,
                server_stop,
            );
        })
    };

    let app = spawn_app_stage(AppStage {
        width: cfg.width,
        height: cfg.height,
        base_objects: cfg.base_objects,
        object_swing: cfg.object_swing,
        regulation: cfg.regulation,
        start,
        stop: Arc::clone(&session_stop),
        input_rx,
        out: buf1.clone(),
        rendered: Arc::clone(&rendered),
        priority_frames: Arc::clone(&priority_n),
        recorder: Arc::clone(&rec_app),
        clock,
    });
    let proxy = spawn_proxy_stage(ProxyStage {
        width: cfg.width,
        height: cfg.height,
        quant_bits: cfg.quant_bits,
        regulation: cfg.regulation,
        keep_source: false, // PSNR sources never cross the wire
        input: buf1.clone(),
        output: Arc::clone(&buf2),
        encoded: Arc::clone(&encoded),
        recorder: Arc::clone(&rec_proxy),
        clock,
    });

    // --- Writer: Mul-Buf2 → socket, backpressure through write_all ----
    let mut frames_sent = 0u64;
    let mut bytes_sent = 0u64;
    while let Some(frame) = buf2.pop_blocking() {
        let (input_id, client_ts_ns, tagged) = match frame.tag {
            Some(ev) => (ev.id, ev.client_ts_ns, FLAG_TAGGED),
            None => (0, 0, 0),
        };
        let header = FrameHeader {
            seq: frame.seq,
            input_id,
            client_ts_ns,
            flags: tagged | if frame.priority { FLAG_PRIORITY } else { 0 },
            payload_len: frame.data.len() as u32,
        };
        if write_frame(&mut stream, &header, &frame.data).is_err() {
            break; // dead socket: drain and depart
        }
        frames_sent += 1;
        bytes_sent += frame.data.len() as u64;
        if server_stop.load(Ordering::Relaxed) || session_stop.load(Ordering::Relaxed) {
            break;
        }
    }

    // --- Shutdown cascade ---------------------------------------------
    session_stop.store(true, Ordering::Relaxed);
    buf1.frames.close();
    for (name, handle) in [("app", app), ("proxy", proxy)] {
        if handle.join().is_err() {
            return Err(OdrError::thread(name, "panicked"));
        }
    }
    if reader.join().is_err() {
        return Err(OdrError::thread("reader", "panicked"));
    }

    let report = DepartureReport {
        session,
        frames_rendered: rendered.load(Ordering::Relaxed),
        frames_encoded: encoded.load(Ordering::Relaxed),
        frames_sent,
        frames_dropped: buf1.frames.drops() + buf2.drops(),
        priority_frames: priority_n.load(Ordering::Relaxed),
        inputs: inputs_n.load(Ordering::Relaxed),
        bytes_sent,
        elapsed_ms: start.elapsed().as_millis() as u64,
    };
    // Best-effort farewell: the client may already be gone.
    let _ = write_message(&mut stream, &Message::Report(report));
    let _ = write_message(&mut stream, &Message::Bye);
    let _ = stream.shutdown(Shutdown::Both);
    Ok(report)
}
