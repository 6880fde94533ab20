//! End-to-end loopback: a real server, real sockets, real clients.
//!
//! These are the tests that close the sim-to-real loop: the serving
//! stack must carry concurrent sessions over 127.0.0.1, honour
//! admission, drain gracefully, and — for an uncontended regulated
//! session — land where the simulator says it should.

use std::thread;
use std::time::Duration;

use odr_client::{run_client, ClientConfig};
use odr_core::{FpsGoal, OdrError, RegulationSpec};
use odr_pipeline::{run_experiment, ExperimentConfig};
use odr_runtime::Regulation;
use odr_serve::{ServeConfig, Server, SessionConfig};
use odr_workload::{Benchmark, Platform, Resolution, Scenario};

/// A small, cheap session every machine can render comfortably.
fn small_session(regulation: Regulation) -> SessionConfig {
    SessionConfig {
        width: 160,
        height: 96,
        regulation,
        quant_bits: 2,
        base_objects: 6,
        object_swing: 6,
    }
}

#[test]
fn four_concurrent_clients_complete_and_depart() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 8,
            exit_after: Some(4),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    let clients: Vec<_> = (0..4)
        .map(|i| {
            let connect = addr.clone();
            thread::spawn(move || {
                run_client(&ClientConfig {
                    connect,
                    session: small_session(Regulation::Odr {
                        target_fps: Some(30.0),
                    }),
                    duration: Duration::from_millis(1200),
                    input_rate_hz: 3.0,
                    seed: 100 + i,
                })
            })
        })
        .collect();
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread").expect("client run"))
        .collect();
    let report = server.join().expect("server drain");

    assert_eq!(report.admitted, 4);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.departures.len(), 4, "{report:?}");
    for out in &outcomes {
        assert!(
            out.report.frames_displayed > 0,
            "client saw no frames: {:?}",
            out.report
        );
        let departure = out.departure.expect("farewell REPORT arrived");
        assert!(departure.frames_sent >= out.report.frames_displayed);
        assert!(out.report.inputs > 0);
    }
    // Departures on the server side are the same sessions the clients saw.
    let mut server_sessions: Vec<u32> = report.departures.iter().map(|d| d.session).collect();
    let mut client_sessions: Vec<u32> = outcomes.iter().map(|o| o.accept.session).collect();
    server_sessions.sort_unstable();
    client_sessions.sort_unstable();
    assert_eq!(server_sessions, client_sessions);
}

#[test]
fn admission_rejects_beyond_the_session_cap() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 1,
            // The holder's departure and the refusal both end a connection.
            exit_after: Some(2),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();

    // First client holds the only slot for its whole session.
    let holder = {
        let connect = addr.clone();
        thread::spawn(move || {
            run_client(&ClientConfig {
                connect,
                session: small_session(Regulation::Odr {
                    target_fps: Some(30.0),
                }),
                duration: Duration::from_millis(900),
                input_rate_hz: 2.0,
                seed: 1,
            })
        })
    };
    thread::sleep(Duration::from_millis(250));
    let refused = run_client(&ClientConfig {
        connect: addr,
        session: small_session(Regulation::Odr {
            target_fps: Some(30.0),
        }),
        duration: Duration::from_millis(300),
        input_rate_hz: 0.0,
        seed: 2,
    });
    let err = refused.expect_err("second session must be refused");
    assert!(matches!(err, OdrError::Admission { .. }), "{err}");
    assert!(err.to_string().contains("session cap"), "{err}");

    holder.join().expect("holder thread").expect("holder run");
    let report = server.join().expect("server drain");
    assert_eq!(report.admitted, 1);
    assert_eq!(report.rejected, 1);
}

#[test]
fn rejection_reason_carries_the_admission_prefix_once() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 0,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let refused = run_client(&ClientConfig {
        connect: server.addr().to_string(),
        session: small_session(Regulation::Odr {
            target_fps: Some(30.0),
        }),
        duration: Duration::from_millis(300),
        input_rate_hz: 0.0,
        seed: 3,
    });
    let err = refused.expect_err("a zero-session server admits nobody");
    assert!(matches!(err, OdrError::Admission { .. }), "{err}");
    let text = err.to_string();
    assert_eq!(
        text.matches("admission rejected").count(),
        1,
        "prefix doubled: {text}"
    );
    assert_eq!(text, "admission rejected: server at session cap 0");
    let report = server.shutdown().expect("server drain");
    assert_eq!((report.admitted, report.rejected), (0, 1));
}

#[test]
fn exit_after_counts_refused_connections() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 0,
            exit_after: Some(1),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let refused = run_client(&ClientConfig {
        connect: server.addr().to_string(),
        session: small_session(Regulation::Odr {
            target_fps: Some(30.0),
        }),
        duration: Duration::from_millis(300),
        input_rate_hz: 0.0,
        seed: 4,
    });
    assert!(matches!(refused, Err(OdrError::Admission { .. })));
    // Wait on a helper thread so a server that never exits fails the
    // test instead of hanging it.
    let (done, joined) = std::sync::mpsc::channel();
    let waiter = thread::spawn(move || {
        let _ = done.send(server.join());
    });
    let report = joined
        .recv_timeout(Duration::from_secs(10))
        .expect("server did not exit after the refused connection")
        .expect("server drain");
    waiter.join().expect("waiter thread");
    assert_eq!((report.admitted, report.rejected), (0, 1));
}

/// The acceptance bar from the issue: a real, uncontended ODR60 session
/// must land within a stated tolerance of the simulator's prediction
/// for the same regulation.
///
/// Tolerance: ±35% on client FPS. The simulator models the paper's
/// calibrated scenario hardware while the loopback session renders a
/// tiny raster scene on whatever CI machine runs the tests, so the
/// comparison is about regulation behaviour (does ODR hold its target
/// rather than run flat out or collapse), not hardware fidelity.
#[test]
fn uncontended_odr60_agrees_with_the_simulator() {
    let scenario = Scenario::new(Benchmark::InMind, Resolution::R720p, Platform::PrivateCloud);
    let sim = run_experiment(
        &ExperimentConfig::builder(scenario, RegulationSpec::odr(FpsGoal::Target(60.0)))
            .duration(Duration::from_secs(10))
            .seed(7)
            .build(),
    );

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            max_sessions: 2,
            exit_after: Some(1),
            scenario,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let outcome = run_client(&ClientConfig {
        connect: server.addr().to_string(),
        session: small_session(Regulation::Odr {
            target_fps: Some(60.0),
        }),
        duration: Duration::from_millis(2500),
        input_rate_hz: 4.0,
        seed: 11,
    })
    .expect("client run");
    let report = server.join().expect("server drain");
    assert_eq!(report.admitted, 1);

    let real_fps = outcome.report.client_fps();
    let sim_fps = sim.client_fps;
    let tolerance = 0.35;
    assert!(
        (real_fps - sim_fps).abs() <= tolerance * sim_fps,
        "real client FPS {real_fps:.1} vs simulated {sim_fps:.1} \
         (tolerance ±{:.0}%)",
        tolerance * 100.0
    );
    // MtP must be sane for an interactive session: positive samples,
    // mean below the SLO bound the admission check enforces (250 ms).
    assert!(outcome.report.mtp_ms.count() > 0, "no MtP samples");
    let mtp_mean = outcome.report.mtp_mean_ms();
    assert!(
        mtp_mean > 0.0 && mtp_mean < 250.0,
        "client MtP mean {mtp_mean:.1} ms out of range"
    );
    // The admission fixed point predicted roughly the target too.
    assert!(
        (outcome.accept.predicted_fps - 60.0).abs() <= 10.0,
        "admission predicted {:.1} fps",
        outcome.accept.predicted_fps
    );
}
