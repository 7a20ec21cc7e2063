//! Engine checkpoints: the byte format behind [`Simulator::checkpoint`] and
//! [`Simulator::resume`].
//!
//! A checkpoint is a header, the scenario's shape and seed, the kernel block
//! (clock, dispatch counter and every pending event, general and in the two
//! alarms) and then each component's mutable state in a fixed order, all
//! through the kernel's positional [`State`] codec and closed by its
//! checksum. Every RNG stream belongs to a component, which checkpoints its
//! position: the stations' contention streams with the MAC, the finite-load
//! sources' streams with the traffic sources. A stream's key, like the rest
//! of the build-time configuration (PHY, topology, policy parameters), is
//! *not* captured: a checkpoint only resumes into a simulator freshly built
//! from the identical scenario, and the seed in the header rejects a build
//! whose streams were keyed from another seed.

use super::arrivals::StationTraffic;
use super::event::Event;
use super::{Simulator, AP_ID, CHANNEL_ID, MAC_ID, TRAFFIC_ID};
use wlan_des::snapshot::{SnapshotError, State, StateReader, StateWriter};

/// The first bytes of every engine checkpoint, in every format version: the
/// magic as a length-prefixed byte string. The `u32` format version follows,
/// so `resume` can name the version of a file it does not read.
const MAGIC: [u8; 16] = *b"\x08\0\0\0\0\0\0\0WLANCKPT";

/// Checkpoint format version. Bump on **any** change to the byte layout —
/// resume never attempts cross-version decoding.
const CHECKPOINT_VERSION: u32 = 9;

impl Simulator {
    /// The station count and sensing path the scenario built, and the seed
    /// its streams were keyed from: a checkpoint loads only into a simulator
    /// of the same shape.
    fn shape(&self) -> ((usize, bool), u64) {
        let mac = &self.sim.model().mac;
        ((mac.stations.len(), mac.clique.is_some()), self.seed)
    }

    /// Serialize the complete mutable simulation state into a byte
    /// checkpoint.
    ///
    /// The checkpoint captures everything that evolves during a run — the
    /// kernel clock and `(time, seq)` counter, every pending event (general
    /// heap and both alarms), the statistics and throughput-binning state,
    /// per-station MAC/policy state and RNG stream positions, the armed
    /// backoff timers, the clique's medium view, the transmission slab
    /// (with generations and free-list structure), the AP controller, and
    /// the traffic sources with their RNG stream positions and armed
    /// arrival timers. Build-time configuration (PHY, topology, policies'
    /// parameters, the streams' keys) is *not* captured:
    /// [`resume`](Self::resume) must be called on a simulator freshly built
    /// from the identical scenario, and the resumed run is then
    /// bit-identical to one that never checkpointed.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        (MAGIC, CHECKPOINT_VERSION).save(&mut w);
        self.shape().save(&mut w);
        self.sim.save(&mut w);
        let engine = self.sim.model();
        engine.world.save(&mut w);
        engine.mac.save(&mut w);
        if let Some(clique) = &engine.mac.clique {
            clique.save(&mut w);
        }
        engine.channel.save(&mut w);
        engine.ap.save(&mut w);
        engine.traffic.save(&mut w);
        w.finish()
    }

    /// Restore state captured by [`checkpoint`](Self::checkpoint) into this
    /// simulator, which must have been freshly built from the identical
    /// scenario (same PHY, topology, policies, traffic, seed).
    ///
    /// On success the simulator continues bit-identically to the run that
    /// produced the checkpoint. A checkpoint of another format version, a
    /// corrupt or truncated one (its checksum is verified before any state
    /// is touched), one of a differently shaped scenario or of another
    /// seed, and one with a pending event that could not be dispatched
    /// (addressed to the wrong component, due before the checkpoint's
    /// clock, or naming a station or transmission the loaded state does not
    /// have) are errors. On
    /// error the simulator may have been partially overwritten and must be
    /// discarded (rebuild and recompute — the campaign layer treats a failed
    /// resume as a cache miss).
    pub fn resume(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let version = bytes
            .strip_prefix(&MAGIC)
            .and_then(|rest| rest.first_chunk())
            .map(|&version| u32::from_le_bytes(version))
            .ok_or_else(|| SnapshotError::custom("not a WLAN engine checkpoint"))?;
        if version != CHECKPOINT_VERSION {
            return Err(SnapshotError::custom(format!(
                "checkpoint format v{version}, this engine reads v{CHECKPOINT_VERSION}"
            )));
        }
        let mut r = StateReader::new(bytes)?;
        r.read::<([u8; 16], u32)>()?; // the header, checked above
        let ((n, clique), seed) = r.read::<((usize, bool), u64)>()?;
        let ((built, built_clique), built_seed) = self.shape();
        if (n, clique) != (built, built_clique) {
            let path = |clique| if clique { "clique" } else { "per-station" };
            return Err(SnapshotError::custom(format!(
                "checkpoint of {n} stations on the {} sensing path, scenario built {built} on the {}",
                path(clique),
                path(built_clique)
            )));
        }
        if seed != built_seed {
            return Err(SnapshotError::custom(format!(
                "checkpoint of a seed-{seed} run, scenario built with seed {built_seed}"
            )));
        }
        self.sim.load(&mut r)?;
        let engine = self.sim.model_mut();
        engine.world.load(&mut r)?;
        engine.mac.load(&mut r)?;
        if let Some(clique) = engine.mac.clique.as_deref_mut() {
            clique.load(&mut r)?;
        }
        engine.channel.load(&mut r)?;
        engine.ap.load(&mut r)?;
        engine.traffic.load(&mut r)?;
        r.expect_end()?;
        self.check_pending()
    }

    /// Reject a loaded pending event, general or alarm, that would panic
    /// when dispatched: one addressed to a component that does not handle
    /// its kind, one naming no station (or, for an arrival, no finite-load
    /// source), or one naming a transmission the loaded slab does not hold.
    /// (The kernel's load has already rejected events addressed to no
    /// component or due before the loaded clock.)
    fn check_pending(&self) -> Result<(), SnapshotError> {
        let engine = self.sim.model();
        let n = engine.mac.stations.len();
        let txs = &engine.channel.txs;
        let traffic = &engine.traffic.stations;
        for (_, target, event) in self.sim.pending_events() {
            let valid = match *event {
                Event::TxStart { station } | Event::AckTimeout { station, .. } => {
                    target == MAC_ID && station < n
                }
                Event::TxEnd { tx } | Event::AckStart { tx } | Event::AckEnd { tx } => {
                    target == CHANNEL_ID && txs.contains(tx)
                }
                Event::FrameArrival { station } => {
                    target == TRAFFIC_ID
                        && matches!(traffic.get(station), Some(StationTraffic::Finite(_)))
                }
                Event::StatsTick => target == AP_ID,
            };
            if !valid {
                return Err(SnapshotError::custom(format!(
                    "pending {event:?} for component {target} cannot be dispatched \
                     in this scenario of {n} stations"
                )));
            }
        }
        Ok(())
    }
}
