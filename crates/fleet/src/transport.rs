//! Async observer transport: campaign events off the commit path.
//!
//! [`dejavuzz::observer::CampaignObserver`] implementations run inline
//! at the executor's commit points — cheap for counters, wrong for
//! anything that might block (aggregation under a fleet-wide lock, a
//! socket write, a UI). [`ChannelObserver`] decouples them: it converts
//! each borrowed event into an owned [`CampaignEvent`] and sends it down
//! a *bounded* channel, so the consumer runs on its own thread and the
//! only way the commit path stalls is a consumer that is persistently
//! slower than the campaign (backpressure, never unbounded memory).
//!
//! [`SocketObserver`] is the cross-process form: the same channel, with
//! a built-in writer thread serialising every event as one JSON line
//! over a Unix stream, through the same [`CampaignEvent::to_json`]
//! [`dejavuzz::observer::JsonLinesObserver`] writes with.
//! [`CampaignEvent`] itself lives in [`dejavuzz::observer`] and is
//! re-exported here.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, OnceLock};

pub use dejavuzz::observer::CampaignEvent;
use dejavuzz::observer::{
    BugFound, CampaignFinished, CampaignObserver, CoverageGained, PeerDeltaImported, RoundStarted,
    SeedImported, SlotCommitted, SnapshotWritten,
};

/// Forwards every campaign event, owned, down a bounded channel. Create
/// with [`ChannelObserver::channel`]; the receiving side drains on its
/// own thread. A full channel blocks the commit path (bounded
/// backpressure — events are never dropped); a dropped receiver makes
/// every further send a silent no-op so a dead consumer cannot wedge
/// the campaign.
pub struct ChannelObserver {
    tx: SyncSender<CampaignEvent>,
}

impl ChannelObserver {
    /// An observer/receiver pair over a channel buffering at most
    /// `capacity` in-flight events.
    pub fn channel(capacity: usize) -> (Self, Receiver<CampaignEvent>) {
        let (tx, rx) = sync_channel(capacity);
        (ChannelObserver { tx }, rx)
    }

    fn forward(&self, ev: CampaignEvent) {
        // The send blocks when the bounded channel is full, i.e. when
        // the consumer lags the campaign — that blocked time *is* the
        // observer fan-out lag, so time exactly it. Off the commit
        // path's state: the instrument is write-only.
        let (lag, events) = fanout_instruments();
        let span = dejavuzz_telemetry::Timer::start(lag);
        let _ = self.tx.send(ev);
        span.finish();
        events.inc();
    }
}

/// The transport's instruments in the process-global registry:
/// `(fan-out lag histogram, events-forwarded counter)`.
fn fanout_instruments() -> (
    &'static dejavuzz_telemetry::Histogram,
    &'static dejavuzz_telemetry::Counter,
) {
    static INSTRUMENTS: OnceLock<(
        Arc<dejavuzz_telemetry::Histogram>,
        Arc<dejavuzz_telemetry::Counter>,
    )> = OnceLock::new();
    let (lag, events) = INSTRUMENTS.get_or_init(|| {
        let r = dejavuzz_telemetry::global();
        (
            r.histogram(
                "dejavuzz_observer_fanout_nanos",
                "Time the commit path spent handing one event to the observer channel \
                 (blocked sends are consumer lag), nanoseconds",
            ),
            r.counter(
                "dejavuzz_observer_events_total",
                "Campaign events forwarded through the channel observer",
            ),
        )
    });
    (lag, events)
}

impl CampaignObserver for ChannelObserver {
    fn round_started(&mut self, ev: &RoundStarted) {
        self.forward(ev.into());
    }

    fn slot_committed(&mut self, ev: &SlotCommitted) {
        self.forward(ev.into());
    }

    fn coverage_gained(&mut self, ev: &CoverageGained<'_>) {
        self.forward(ev.into());
    }

    fn bug_found(&mut self, ev: &BugFound) {
        self.forward(ev.into());
    }

    fn snapshot_written(&mut self, ev: &SnapshotWritten<'_>) {
        self.forward(ev.into());
    }

    fn peer_delta_imported(&mut self, ev: &PeerDeltaImported) {
        self.forward(ev.into());
    }

    fn seed_imported(&mut self, ev: &SeedImported) {
        self.forward(ev.into());
    }

    fn campaign_finished(&mut self, ev: &CampaignFinished<'_>) {
        self.forward(ev.into());
    }
}

/// Ships campaign events as JSON lines over a Unix stream: a
/// [`ChannelObserver`] whose receiver is a built-in writer thread. The
/// commit path never touches the socket; a broken socket warns once on
/// stderr and the writer discards further events (the campaign itself
/// is unaffected). Dropping the observer closes the channel, flushes
/// what is queued and joins the writer.
#[cfg(unix)]
pub use unix::SocketObserver;

#[cfg(unix)]
mod unix {
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::path::Path;
    use std::thread::JoinHandle;

    use dejavuzz::observer::{
        BugFound, CampaignFinished, CampaignObserver, CoverageGained, PeerDeltaImported,
        RoundStarted, SeedImported, SlotCommitted, SnapshotWritten,
    };

    use super::ChannelObserver;

    /// See the re-export's docs in [`super`].
    pub struct SocketObserver {
        chan: Option<ChannelObserver>,
        writer: Option<JoinHandle<()>>,
    }

    impl SocketObserver {
        /// Connects to a Unix socket and streams events to it, buffering
        /// at most `capacity` in-flight events.
        pub fn connect(path: &Path, capacity: usize) -> std::io::Result<Self> {
            Ok(SocketObserver::from_stream(
                UnixStream::connect(path)?,
                capacity,
            ))
        }

        /// Streams events over an already-connected stream (socketpairs,
        /// tests, hub-accepted connections).
        pub fn from_stream(mut stream: UnixStream, capacity: usize) -> Self {
            let (chan, rx) = ChannelObserver::channel(capacity);
            let writer = std::thread::spawn(move || {
                let mut alive = true;
                while let Ok(ev) = rx.recv() {
                    if alive && writeln!(stream, "{}", ev.to_json()).is_err() {
                        eprintln!(
                            "dejavuzz-fleet: telemetry socket write failed; \
                             discarding further events"
                        );
                        alive = false;
                    }
                }
                if alive {
                    let _ = stream.flush();
                }
            });
            SocketObserver {
                chan: Some(chan),
                writer: Some(writer),
            }
        }

        fn chan(&mut self) -> &mut ChannelObserver {
            self.chan.as_mut().expect("channel lives until drop")
        }
    }

    impl CampaignObserver for SocketObserver {
        fn round_started(&mut self, ev: &RoundStarted) {
            self.chan().round_started(ev);
        }

        fn slot_committed(&mut self, ev: &SlotCommitted) {
            self.chan().slot_committed(ev);
        }

        fn coverage_gained(&mut self, ev: &CoverageGained<'_>) {
            self.chan().coverage_gained(ev);
        }

        fn bug_found(&mut self, ev: &BugFound) {
            self.chan().bug_found(ev);
        }

        fn snapshot_written(&mut self, ev: &SnapshotWritten<'_>) {
            self.chan().snapshot_written(ev);
        }

        fn peer_delta_imported(&mut self, ev: &PeerDeltaImported) {
            self.chan().peer_delta_imported(ev);
        }

        fn seed_imported(&mut self, ev: &SeedImported) {
            self.chan().seed_imported(ev);
        }

        fn campaign_finished(&mut self, ev: &CampaignFinished<'_>) {
            self.chan().campaign_finished(ev);
        }
    }

    impl Drop for SocketObserver {
        fn drop(&mut self) {
            // Closing the sender ends the writer's recv loop after the
            // queue drains; joining guarantees every event reached the
            // socket (or the one-time failure warning fired) before the
            // campaign thread moves on.
            drop(self.chan.take());
            if let Some(writer) = self.writer.take() {
                let _ = writer.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_observer_forwards_events_in_order() {
        let (mut obs, rx) = ChannelObserver::channel(16);
        obs.round_started(&RoundStarted {
            first_slot: 0,
            slots: 4,
            gain_threshold_samples: 0,
        });
        obs.peer_delta_imported(&PeerDeltaImported {
            from_shard: 1,
            peer_iterations: 4,
            boundary: 4,
            points: 2,
            fresh_points: 2,
            total_points: 9,
        });
        drop(obs);
        let got: Vec<CampaignEvent> = rx.iter().collect();
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], CampaignEvent::RoundStarted(_)));
        assert!(matches!(
            got[1],
            CampaignEvent::PeerDeltaImported(PeerDeltaImported { from_shard: 1, .. })
        ));
    }

    #[test]
    fn dropped_receiver_does_not_wedge_the_observer() {
        let (mut obs, rx) = ChannelObserver::channel(1);
        drop(rx);
        for _ in 0..8 {
            obs.round_started(&RoundStarted {
                first_slot: 0,
                slots: 1,
                gain_threshold_samples: 0,
            });
        }
    }

    #[cfg(unix)]
    #[test]
    fn socket_observer_writes_json_lines_over_a_socketpair() {
        use std::io::Read;
        use std::os::unix::net::UnixStream;

        let (ours, mut theirs) = UnixStream::pair().unwrap();
        let mut obs = SocketObserver::from_stream(ours, 16);
        let round = RoundStarted {
            first_slot: 0,
            slots: 8,
            gain_threshold_samples: 3,
        };
        let delta = PeerDeltaImported {
            from_shard: 3,
            peer_iterations: 40,
            boundary: 8,
            points: 5,
            fresh_points: 4,
            total_points: 6,
        };
        obs.round_started(&round);
        obs.peer_delta_imported(&delta);
        drop(obs); // joins the writer: everything queued is on the wire
        let mut wire = String::new();
        theirs.read_to_string(&mut wire).unwrap();
        assert_eq!(
            wire,
            format!(
                "{}\n{}\n",
                CampaignEvent::from(&round).to_json(),
                CampaignEvent::from(&delta).to_json()
            )
        );
    }
}
