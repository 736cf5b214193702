//! The background trainer thread: a poll loop around
//! [`ControlPlane::run_epoch`].
//!
//! The thread owns nothing serving depends on — it talks to the server
//! exclusively through [`taxo_serve::ServeController`] (whose control
//! jobs ride the ingest queue), so a slow or wedged trainer can never
//! stall a live request. Stopping returns the [`ControlPlane`] with its
//! full decision history for inspection.

use crate::plane::{ControlPlane, LatencyProbe, Oracle};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use taxo_serve::ServeController;

/// How long the loop sleeps between epoch checks.
const POLL: Duration = Duration::from_millis(25);

/// Handle to a spawned trainer thread.
pub struct Trainer {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ControlPlane>,
}

impl Trainer {
    /// Arms the server's shadow tap per the plane's config and starts
    /// the poll loop. The loop exits when [`Trainer::stop`] is called or
    /// the server shuts down; the tap is disarmed on the way out.
    pub fn spawn(
        ctl: ServeController,
        mut plane: ControlPlane,
        mut oracle: Box<dyn Oracle + Send>,
        probe: LatencyProbe,
    ) -> Trainer {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("taxo-train".into())
            .spawn(move || {
                let cfg = plane.cfg();
                let (sample, seed) = (cfg.shadow_sample, cfg.seed);
                if sample > 0 {
                    ctl.shadow_tap().arm(sample, seed);
                }
                while !stop_flag.load(Ordering::Acquire) && !ctl.is_shutdown() {
                    plane.run_epoch(&ctl, &mut *oracle, &probe);
                    std::thread::sleep(POLL);
                }
                ctl.shadow_tap().disarm();
                plane
            })
            .expect("spawn trainer thread");
        Trainer { stop, handle }
    }

    /// Signals the loop and joins it, returning the plane (and with it
    /// every [`crate::Decision`] taken).
    pub fn stop(self) -> ControlPlane {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("trainer thread panicked")
    }
}
