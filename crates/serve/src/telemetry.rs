//! Live observability streaming.
//!
//! The simulator exports its trace once, at the end of a run. A server
//! cannot: sessions come and go and the process may serve for hours, so
//! the obs layer streams instead — a telemetry worker periodically
//! drains every registered session recorder ([`Recorder::drain_into`],
//! the incremental API added for this) and appends the events as JSONL
//! to a file. Lines are rendered by the same
//! [`odr_obs::write_events_jsonl`] renderer the one-shot exporter uses,
//! so a streamed trace concatenates to byte-for-byte what a shutdown
//! export of the same events would have produced.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use odr_core::{OdrError, OdrResult};
use odr_obs::{write_events_jsonl, Drained, Recorder};

/// Locks a mutex, recovering from poison: the registry holds plain data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    recorders: Mutex<Vec<Arc<dyn Recorder>>>,
    stop: AtomicBool,
}

impl Shared {
    /// Drains every registered recorder and appends the batch as JSONL.
    /// Returns the number of events written.
    fn flush(&self, file: &mut File, path: &Path) -> OdrResult<usize> {
        let mut batch = Drained::default();
        {
            let recorders = lock(&self.recorders);
            for rec in recorders.iter() {
                rec.drain_into(&mut batch);
            }
        }
        if batch.events.is_empty() {
            return Ok(0);
        }
        // Stable output: batches interleave events from many per-session
        // rings; sort by timestamp like ObsReport::from_drained does.
        batch.events.sort_by_key(|e| e.ts_ns);
        let mut out = String::new();
        write_events_jsonl(&mut out, &batch.events);
        file.write_all(out.as_bytes())
            .map_err(|e| OdrError::io(path.display().to_string(), e))?;
        Ok(batch.events.len())
    }
}

/// A background JSONL telemetry stream. Sessions register their
/// recorders; the worker drains them on a fixed period and once more at
/// [`Telemetry::close`].
pub struct Telemetry {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<OdrResult<()>>>,
}

impl Telemetry {
    /// Creates (truncating) the JSONL file at `path` and starts the
    /// drain worker with the given period.
    ///
    /// # Errors
    ///
    /// [`OdrError::Io`] when the file cannot be created.
    pub fn spawn(path: impl Into<PathBuf>, period: Duration) -> OdrResult<Telemetry> {
        let path = path.into();
        let mut file =
            File::create(&path).map_err(|e| OdrError::io(path.display().to_string(), e))?;
        let shared = Arc::new(Shared {
            recorders: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || -> OdrResult<()> {
                while !shared.stop.load(Ordering::Relaxed) {
                    thread::sleep(period);
                    shared.flush(&mut file, &path)?;
                }
                // Final drain: everything recorded after the last tick.
                shared.flush(&mut file, &path)?;
                file.flush()
                    .map_err(|e| OdrError::io(path.display().to_string(), e))?;
                Ok(())
            })
        };
        Ok(Telemetry {
            shared,
            worker: Some(worker),
        })
    }

    /// Registers a recorder for periodic draining. Recorders live for
    /// the whole server lifetime (sessions keep their ring registered
    /// after departure; it simply drains empty).
    pub fn register(&self, recorder: Arc<dyn Recorder>) {
        lock(&self.shared.recorders).push(recorder);
    }

    /// Stops the worker, performs the final drain, and closes the file.
    ///
    /// # Errors
    ///
    /// [`OdrError::Io`] if any append failed, [`OdrError::Thread`] if
    /// the worker panicked.
    pub fn close(mut self) -> OdrResult<()> {
        self.shared.stop.store(true, Ordering::Relaxed);
        match self.worker.take().map(JoinHandle::join) {
            Some(Ok(outcome)) => outcome,
            Some(Err(_)) => Err(OdrError::thread("telemetry", "panicked")),
            None => Ok(()),
        }
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odr_obs::{names, track, Event, RingRecorder};

    #[test]
    fn streamed_events_land_in_the_file() {
        let dir = std::env::temp_dir().join(format!("odr-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("live.jsonl");
        let tele = Telemetry::spawn(&path, Duration::from_millis(5)).expect("spawn");
        let rec: Arc<RingRecorder> = Arc::new(RingRecorder::default());
        tele.register(Arc::clone(&rec) as Arc<dyn Recorder>);
        for ts in 0..10 {
            rec.record(Event::instant(ts, track::CLIENT, names::PRESENT));
        }
        thread::sleep(Duration::from_millis(30));
        for ts in 10..20 {
            rec.record(Event::instant(ts, track::CLIENT, names::PRESENT));
        }
        tele.close().expect("close");
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 20, "{text}");
        assert!(lines[0].contains("\"ts_ns\":0"));
        assert!(lines[19].contains("\"ts_ns\":19"));
        // Byte-identical to a one-shot render of the same events.
        let mut expect = String::new();
        let events: Vec<Event> = (0..20)
            .map(|ts| Event::instant(ts, track::CLIENT, names::PRESENT))
            .collect();
        write_events_jsonl(&mut expect, &events);
        assert_eq!(text, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_is_clean_with_no_recorders() {
        let dir = std::env::temp_dir().join(format!("odr-telemetry-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("empty.jsonl");
        let tele = Telemetry::spawn(&path, Duration::from_millis(1)).expect("spawn");
        thread::sleep(Duration::from_millis(5));
        tele.close().expect("close");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
