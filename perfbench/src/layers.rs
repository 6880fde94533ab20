//! Per-layer measurements: timed calls into each crate's public
//! functions at the workload's own parameters, and the aggregation of
//! the server's telemetry stream.
//!
//! Calls too short to time one by one are timed in batches; each batch
//! is one span whose `calls` field says how many calls it covered, and
//! the reported figure is the median of the batch means.

use std::collections::HashMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use odr_cluster::{NodeState, Resident, SessionLoad, Slo};
use odr_codec::{Decoder, Encoder};
use odr_core::{FpsRegulator, SlabEventQueue, SyncQueue};
use odr_fleet::{run_fleet, FleetConfig};
use odr_netsim::Link;
use odr_obs::{names, track, Event, NullRecorder, Recorder, RingRecorder, DEFAULT_CAPACITY};
use odr_pipeline::colocation::ServerCapacity;
use odr_pipeline::run_experiment;
use odr_raster::{Framebuffer, Rasterizer, Scene};
use odr_runtime::Regulation;
use odr_serve::wire::{
    decode, read_message, write_frame, DepartureReport, FrameHeader, Message, SessionConfig,
};
use odr_serve::{session_load, Admission};
use odr_simtime::{EventQueue, Rng, SimTime};
use odr_workload::Scenario;

use crate::metrics::{median, percentile, Outcome};
use crate::trace::Tracer;

/// Batches per batched measurement.
const BATCHES: usize = 5;

/// Times `BATCHES` batches of `calls` calls of `f` (given the call
/// index), one span per batch; returns the median nanoseconds per call.
fn batched_ns(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    id: u32,
    calls: u64,
    mut f: impl FnMut(u64),
) -> f64 {
    let mut means = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let span = tracer.begin(layer, name, id);
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        means.push(start.elapsed().as_nanos() as f64 / calls as f64);
        tracer.end(span, calls);
    }
    median(&means)
}

/// Seconds `f` took, as one span.
fn timed<R>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    id: u32,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    tracer.span(layer, name, id, 1, || {
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    })
}

/// Renders, copies out, encodes and decodes one second of the session's
/// video (30 consecutive frames). Returns the last encoded payload.
pub fn raster_codec(
    out: &mut Outcome,
    tracer: &mut Tracer,
    session: &SessionConfig,
    id: u32,
) -> Vec<u8> {
    const FRAMES: u32 = 30;
    let (w, h) = (session.width, session.height);
    let scene = Scene::new(session.base_objects, session.object_swing);
    let mut raster = Rasterizer::new();
    let mut fb = Framebuffer::new(w, h);
    let mut encoder = Encoder::new(w, h, session.quant_bits);
    let mut decoder = Decoder::new(w, h);
    let (mut render, mut copy, mut encode, mut size, mut dec) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut payload = Vec::new();
    let mut bad_decodes = 0;
    for i in 0..FRAMES {
        let t = i as f32 / 30.0;
        let (_, s) = timed(tracer, "raster", "Scene::render", id, || {
            black_box(scene.render(&mut raster, &mut fb, t))
        });
        render.push(s);
        let (rgba, s) = timed(tracer, "raster", "Framebuffer::bytes", id, || fb.bytes());
        copy.push(s);
        let (frame, s) = timed(tracer, "codec", "Encoder::encode", id, || {
            encoder.encode(&rgba)
        });
        encode.push(s);
        size.push(frame.data.len() as f64);
        let (decoded, s) = timed(tracer, "codec", "Decoder::decode", id, || {
            decoder.decode(&frame.data)
        });
        dec.push(s);
        if decoded.map_or(true, |px| px.len() != rgba.len()) {
            bad_decodes += 1;
        }
        payload = frame.data;
    }
    out.check(bad_decodes == 0, || {
        format!("{bad_decodes} of {FRAMES} frames failed to decode")
    });
    out.layer("raster.render_ms", median(&render) * 1e3);
    out.layer("raster.fb_bytes_ms", median(&copy) * 1e3);
    out.layer("codec.encode_ms", median(&encode) * 1e3);
    out.layer("codec.encoded_kb", median(&size) / 1024.0);
    out.layer("codec.decode_ms", median(&dec) * 1e3);
    payload
}

/// p50 and p99 microseconds of a cross-thread publish→pop through a
/// one-slot swap queue. As in the pipeline, one frame is in flight and
/// the consumer is parked in `pop_blocking` when the frame is published.
fn handoff_us(
    tracer: &mut Tracer,
    name: &'static str,
    queue: &SyncQueue<Instant>,
    id: u32,
) -> (f64, f64) {
    const ITEMS: u64 = 5_000;
    /// Time the consumer gets to park before the next publish.
    const PARK: Duration = Duration::from_micros(50);
    let popped = AtomicU64::new(0);
    let span = tracer.begin("core", name, id);
    let latencies = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut lat = Vec::with_capacity(ITEMS as usize);
            while let Some(stamp) = queue.pop_blocking() {
                lat.push(stamp.elapsed().as_secs_f64() * 1e6);
                popped.fetch_add(1, Ordering::Release);
            }
            lat
        });
        for i in 0..ITEMS {
            while popped.load(Ordering::Acquire) < i {
                std::hint::spin_loop();
            }
            std::thread::sleep(PARK);
            if !queue.publish_blocking(Instant::now()) {
                break;
            }
        }
        queue.close();
        consumer.join().unwrap_or_default()
    });
    tracer.end(span, ITEMS);
    (percentile(&latencies, 50.0), percentile(&latencies, 99.0))
}

/// Swap hand-off latency under both Mul-Buf policies.
pub fn swap_handoff(out: &mut Outcome, tracer: &mut Tracer, id: u32) {
    let (p50, p99) = handoff_us(
        tracer,
        "SyncQueue block(1)",
        &SyncQueue::new_blocking(1),
        id,
    );
    out.layer("core.swap.handoff_us.block.p50", p50);
    out.layer("core.swap.handoff_us.block.p99", p99);
    let (p50, p99) = handoff_us(
        tracer,
        "SyncQueue overwrite(1)",
        &SyncQueue::new_overwriting(1),
        id,
    );
    out.layer("core.swap.handoff_us.overwrite.p50", p50);
    out.layer("core.swap.handoff_us.overwrite.p99", p99);
}

/// One Algorithm 1 step, with the regulator the proxy builds for
/// `regulation`.
pub fn regulator_step(out: &mut Outcome, tracer: &mut Tracer, regulation: Regulation, id: u32) {
    let mut regulator = match regulation {
        Regulation::Odr {
            target_fps: Some(fps),
        } => FpsRegulator::new(fps).with_max_debt(30.0),
        _ => FpsRegulator::unlimited(),
    };
    let ns = batched_ns(
        tracer,
        "core",
        "FpsRegulator::on_frame_processed",
        id,
        200_000,
        |i| {
            let processing = Duration::from_micros(12_000 + (i % 11) * 2_000);
            black_box(regulator.on_frame_processed(black_box(processing)));
        },
    );
    out.layer("core.regulator.step_ns", ns);
}

fn frame_header(payload: &[u8]) -> FrameHeader {
    FrameHeader {
        seq: 1,
        input_id: 0,
        client_ts_ns: 0,
        flags: 0,
        payload_len: payload.len() as u32,
    }
}

/// Wire framing and parsing of one frame at the session's encoded size.
pub fn wire(out: &mut Outcome, tracer: &mut Tracer, payload: &[u8], id: u32) {
    let header = frame_header(payload);
    let mut buf = Vec::with_capacity(payload.len() + 64);
    let write_ns = batched_ns(tracer, "serve", "wire::write_frame", id, 400, |_| {
        buf.clear();
        let _ = black_box(write_frame(&mut buf, &header, payload));
    });
    let mut parsed_ok = true;
    let decode_ns = batched_ns(tracer, "serve", "wire::decode", id, 400, |_| {
        let ok = matches!(decode(black_box(&buf)), Ok(Some((Message::Frame { .. }, used))) if used == buf.len());
        parsed_ok &= ok;
    });
    out.check(parsed_ok, || {
        "wire::decode did not return the frame it was given".into()
    });
    out.layer("serve.wire.write_frame_us", write_ns / 1e3);
    out.layer("serve.wire.decode_us", decode_ns / 1e3);
}

/// One frame over a loopback TCP connection: written by one thread,
/// read whole with `read_message` by another, one frame in flight.
pub fn socket_hop(out: &mut Outcome, tracer: &mut Tracer, payload: &[u8], id: u32) {
    const HOPS: usize = 200;
    let connected = TcpListener::bind("127.0.0.1:0").and_then(|listener| {
        let writer = TcpStream::connect(listener.local_addr()?)?;
        let (reader, _) = listener.accept()?;
        writer.set_nodelay(true)?;
        reader.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok((writer, reader))
    });
    let (mut writer, mut reader) = match connected {
        Ok(pair) => pair,
        Err(e) => return out.check(false, || format!("loopback socket: {e}")),
    };
    let origin = Instant::now();
    let mut hops = Vec::with_capacity(HOPS);
    std::thread::scope(|scope| {
        let (go, wait) = mpsc::channel::<()>();
        scope.spawn(move || {
            let mut header = frame_header(payload);
            while wait.recv().is_ok() {
                header.client_ts_ns = origin.elapsed().as_nanos() as u64;
                if write_frame(&mut writer, &header, payload).is_err() {
                    break;
                }
            }
        });
        for _ in 0..HOPS {
            if go.send(()).is_err() {
                break;
            }
            let span = tracer.begin("serve", "socket hop", id);
            let read = read_message(&mut reader);
            tracer.end(span, 1);
            match read {
                Ok(Some(Message::Frame { header, .. })) => {
                    let now = origin.elapsed().as_nanos() as u64;
                    hops.push(now.saturating_sub(header.client_ts_ns) as f64 / 1e3);
                }
                _ => break,
            }
        }
    });
    out.check(hops.len() == HOPS, || {
        format!("socket hop: {} of {HOPS} frames arrived", hops.len())
    });
    out.layer("serve.socket.hop_us", median(&hops));
}

/// One admission decision for a new session on an empty server.
pub fn admission(out: &mut Outcome, tracer: &mut Tracer, regulation: Regulation, id: u32) {
    // The scenario `odrsim --serve` prices admission with.
    let scenario = odr_serve::ServeConfig::default().scenario;
    let admission = Admission::new(&scenario, ServerCapacity::default(), Slo::default());
    let candidate = session_load(&scenario, regulation);
    let mut admitted = true;
    let ns = batched_ns(tracer, "serve", "Admission::check", id, 20_000, |_| {
        admitted &= black_box(admission.check(&[], black_box(&candidate))).is_ok();
    });
    out.check(admitted, || "a lone session was refused admission".into());
    out.layer("serve.admit.check_us", ns / 1e3);
}

/// One event recorded into a ring and into the null sink, through the
/// `&dyn Recorder` the stages hold.
pub fn obs_record(out: &mut Outcome, tracer: &mut Tracer, id: u32) {
    let ring = RingRecorder::new(DEFAULT_CAPACITY);
    for (metric, recorder) in [
        ("obs.record_ns.ring", &ring as &dyn Recorder),
        ("obs.record_ns.null", &NullRecorder as &dyn Recorder),
    ] {
        let ns = batched_ns(tracer, "obs", "Recorder::record", id, 200_000, |i| {
            black_box(recorder).record(Event::instant(i, track::APP, names::RENDER).with_id(i));
        });
        out.layer(metric, ns);
    }
}

/// Finds `"key":value` in one JSONL line and returns the raw value.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = line.get(start..)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest.get(..end)?.trim_matches('"'))
}

/// Aggregates the server's telemetry JSONL into the per-layer swap,
/// regulator and stage metrics of the session it recorded.
pub fn server_telemetry(out: &mut Outcome, text: &str, departure: &DepartureReport) {
    let mut open: HashMap<(String, String), u64> = HashMap::new();
    let mut busy_ms: HashMap<(String, String), f64> = HashMap::new();
    let (mut drops, mut flushes, mut delays, mut delay_s, mut cancels) =
        (0.0, 0.0, 0u64, 0.0, 0u64);
    for line in text.lines() {
        let (Some(ts), Some(trk), Some(kind), Some(name)) = (
            field(line, "ts_ns"),
            field(line, "track"),
            field(line, "kind"),
            field(line, "name"),
        ) else {
            continue;
        };
        let ts: u64 = ts.parse().unwrap_or(0);
        let value: f64 = field(line, "value")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        let key = (trk.to_string(), name.to_string());
        match kind {
            "begin" => {
                open.insert(key, ts);
            }
            "end" => {
                if let Some(begin) = open.remove(&key) {
                    *busy_ms.entry(key).or_insert(0.0) += ts.saturating_sub(begin) as f64 / 1e6;
                }
            }
            _ => match name {
                "swap.drop" => drops += value,
                "swap.priority_flush" => flushes += value,
                "regulator.delay" => {
                    delays += 1;
                    delay_s += value;
                }
                "regulator.priority_cancel" => cancels += 1,
                _ => {}
            },
        }
    }
    let busy = |trk: &str, name: &str| {
        busy_ms
            .get(&(trk.to_string(), name.to_string()))
            .copied()
            .unwrap_or(0.0)
    };
    let per = |n: u64| n.max(1) as f64;
    let elapsed_ms = per(departure.elapsed_ms);
    out.layer(
        "core.buf1.wait_space_ms",
        busy("buf1", names::WAIT_SPACE) / per(departure.frames_rendered),
    );
    out.layer(
        "core.buf2.wait_data_ms",
        busy("buf2", names::WAIT_DATA) / per(departure.frames_sent),
    );
    out.layer("core.swap.drops", drops);
    out.layer("core.swap.priority_flushes", flushes);
    out.layer("core.regulator.delays", delays as f64);
    out.layer(
        "core.regulator.delay_ms",
        delay_s * 1e3 / per(departure.frames_encoded),
    );
    out.layer("core.regulator.cancels", cancels as f64);
    out.layer(
        "runtime.app.render_busy_frac",
        busy("app", names::RENDER) / elapsed_ms,
    );
    out.layer(
        "runtime.proxy.encode_busy_frac",
        busy("proxy", names::ENCODE) / elapsed_ms,
    );
}

/// Every session of the fleet run alone through the DES, then the whole
/// fleet on its worker pool (median of five runs): per-session cost and
/// parallel efficiency.
pub fn pipeline_fleet(out: &mut Outcome, tracer: &mut Tracer, cfg: &FleetConfig, id: u32) {
    let mut session_s = Vec::new();
    let mut frames = 0u64;
    for i in 0..cfg.sessions {
        let (report, s) = timed(tracer, "pipeline", "run_experiment", id, || {
            run_experiment(&cfg.session_config(i))
        });
        session_s.push(s);
        frames += report.frames_rendered;
    }
    let fleet_s: Vec<f64> = (0..5)
        .map(|_| timed(tracer, "fleet", "run_fleet", id, || run_fleet(cfg)).1)
        .collect();
    out.layer("pipeline.session_ms", median(&session_s) * 1e3);
    out.layer(
        "pipeline.frames_per_session",
        frames as f64 / f64::from(cfg.sessions.max(1)),
    );
    out.layer(
        "fleet.parallel_efficiency",
        session_s.iter().sum::<f64>() / (cfg.effective_threads() as f64 * median(&fleet_s)),
    );
}

/// Nanoseconds per push+pop (the DES's steady state: pop the next event,
/// schedule its successor) on `queue` holding `depth` pending events.
fn queue_ns<Q>(
    tracer: &mut Tracer,
    name: &'static str,
    id: u32,
    (depth, seed): (u64, u64),
    queue: &mut Q,
    push: fn(&mut Q, SimTime, u64),
    pop: fn(&mut Q) -> Option<(SimTime, u64)>,
) -> f64 {
    let mut rng = Rng::new(seed);
    let gaps_us: Vec<u64> = (0..4096).map(|_| 1 + rng.below(33_000)).collect();
    let gap = |i: u64| Duration::from_micros(gaps_us[i as usize % gaps_us.len()]);
    for e in 0..depth {
        push(queue, SimTime::ZERO + gap(e), e);
    }
    batched_ns(tracer, "simtime", name, id, 200_000, |i| {
        if let Some((t, e)) = pop(queue) {
            push(queue, t + gap(i), black_box(e));
        }
    })
}

/// The pipeline's slab event queue at a session's pending depth.
pub fn slab_queue(out: &mut Outcome, tracer: &mut Tracer, depth: u64, seed: u64, id: u32) {
    let ns = queue_ns(
        tracer,
        "SlabEventQueue push+pop",
        id,
        (depth, seed),
        &mut SlabEventQueue::new(),
        SlabEventQueue::push,
        SlabEventQueue::pop,
    );
    out.layer("simtime.slab_queue_ns", ns);
}

/// The control plane's event queue at its pending depth.
pub fn event_queue(out: &mut Outcome, tracer: &mut Tracer, depth: u64, seed: u64, id: u32) {
    let ns = queue_ns(
        tracer,
        "EventQueue push+pop",
        id,
        (depth, seed),
        &mut EventQueue::new(),
        EventQueue::push,
        EventQueue::pop,
    );
    out.layer("simtime.event_queue_ns", ns);
}

/// Sampling one frame's stage times and size from the scenario's
/// frame model, and sending it down the scenario's downlink.
pub fn workload_netsim(
    out: &mut Outcome,
    tracer: &mut Tracer,
    scenario: &Scenario,
    seed: u64,
    id: u32,
) {
    let model = scenario.frame_model();
    let mut rng = Rng::new(seed);
    let sample_ns = batched_ns(tracer, "workload", "FrameModel sample", id, 100_000, |i| {
        let stages = model.render.sample(&mut rng)
            + model.copy.sample(&mut rng)
            + model.encode.sample(&mut rng)
            + model.decode.sample(&mut rng);
        black_box((stages, model.size.sample(&mut rng, i)));
    });
    out.layer("workload.sample_ns", sample_ns);
    let sizes: Vec<u64> = (0..4096).map(|i| model.size.sample(&mut rng, i)).collect();
    let mut link = Link::new(scenario.downlink(), Rng::new(seed));
    let mut now = SimTime::ZERO;
    let send_ns = batched_ns(tracer, "netsim", "Link::send", id, 100_000, |i| {
        now += Duration::from_micros(16_667);
        black_box(link.send(now, sizes[i as usize % sizes.len()]));
    });
    out.layer("netsim.link_send_ns", send_ns);
}

/// One colocation fixed-point solve for a node holding `residents`
/// sessions plus a candidate. Residents cycle through the paper mix's
/// real-path policies (RVS has no real-path regulation), priced with
/// the analytic loads the serving surface admits by.
pub fn cluster_solve(
    out: &mut Outcome,
    tracer: &mut Tracer,
    scenario: &Scenario,
    residents: u32,
    id: u32,
) {
    let loads: Vec<SessionLoad> = [
        Regulation::Odr {
            target_fps: Some(60.0),
        },
        Regulation::Odr {
            target_fps: Some(30.0),
        },
        Regulation::Odr { target_fps: None },
        Regulation::Interval { fps: 60.0 },
        Regulation::NoReg,
    ]
    .into_iter()
    .map(|r| session_load(scenario, r))
    .collect();
    let resident: Vec<Resident> = (0..residents)
        .map(|i| Resident {
            session: i,
            load: loads[i as usize % loads.len()],
        })
        .collect();
    let mem = scenario.memory_params();
    let capacity = ServerCapacity::default();
    let ns = batched_ns(tracer, "cluster", "NodeState::solve", id, 20_000, |_| {
        black_box(NodeState::solve(
            &capacity,
            &mem,
            black_box(&resident),
            Some(&loads[0]),
        ));
    });
    out.layer("cluster.solve_us", ns / 1e3);
}
