//! Engine checkpoints: the byte format behind [`Simulator::checkpoint`] and
//! [`Simulator::resume`].
//!
//! A checkpoint is a header, the scenario's shape, the kernel block (clock,
//! dispatch counter, every pending event, the channel's RNG stream) and then
//! each component's mutable state in a fixed order, all through the kernel's
//! positional [`State`] codec and closed by its checksum. Build-time
//! configuration (PHY, topology, policy parameters) is *not* captured: a
//! checkpoint only resumes into a simulator freshly built from the identical
//! scenario.

use super::Simulator;
use wlan_des::snapshot::{SnapshotError, State, StateReader, StateWriter};

/// The first bytes of every engine checkpoint, in every format version: the
/// magic as a length-prefixed byte string. The `u32` format version follows,
/// so `resume` can name the version of a file it does not read.
const MAGIC: [u8; 16] = *b"\x08\0\0\0\0\0\0\0WLANCKPT";

/// Checkpoint format version. Bump on **any** change to the byte layout —
/// resume never attempts cross-version decoding.
const CHECKPOINT_VERSION: u32 = 3;

impl Simulator {
    /// The station count and sensing path the scenario built: a checkpoint
    /// loads only into a simulator of the same shape.
    fn shape(&self) -> (usize, bool) {
        let mac = self.sim.component(self.mac);
        (mac.stations.len(), mac.clique.is_some())
    }

    /// Serialize the complete mutable simulation state into a byte
    /// checkpoint.
    ///
    /// The checkpoint captures everything that evolves during a run — the
    /// kernel clock and `(time, seq)` counter, every pending event (general
    /// heap and both timer tiers), the statistics and throughput-binning
    /// state, per-station MAC/policy/RNG state, the clique's medium view,
    /// the transmission slab (with generations and free-list structure), the
    /// AP controller, traffic sources, and the channel's frame-error RNG
    /// stream. Build-time configuration (PHY, topology, policies'
    /// parameters) is *not* captured: [`resume`](Self::resume) must be
    /// called on a simulator freshly built from the identical scenario, and
    /// the resumed run is then bit-identical to one that never checkpointed.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        (MAGIC, CHECKPOINT_VERSION).save(&mut w);
        self.shape().save(&mut w);
        self.sim.save(&mut w);
        self.sim.world().save(&mut w);
        let mac = self.sim.component(self.mac);
        mac.save(&mut w);
        if let Some(clique) = &mac.clique {
            clique.save(&mut w);
        }
        self.sim.component(self.channel).save(&mut w);
        self.sim.component(self.ap).save(&mut w);
        self.sim.component(self.traffic).save(&mut w);
        w.finish()
    }

    /// Restore state captured by [`checkpoint`](Self::checkpoint) into this
    /// simulator, which must have been freshly built from the identical
    /// scenario (same PHY, topology, policies, traffic, seed).
    ///
    /// On success the simulator continues bit-identically to the run that
    /// produced the checkpoint. A checkpoint of another format version, a
    /// corrupt or truncated one (its checksum is verified before any state
    /// is touched) and one of a differently shaped scenario are errors. On
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
        let (n, clique) = r.read::<(usize, bool)>()?;
        let (built, built_clique) = self.shape();
        if (n, clique) != (built, built_clique) {
            let path = |clique| if clique { "clique" } else { "per-station" };
            return Err(SnapshotError::custom(format!(
                "checkpoint of {n} stations on the {} sensing path, scenario built {built} on the {}",
                path(clique),
                path(built_clique)
            )));
        }
        self.sim.load(&mut r)?;
        self.sim.world_mut().load(&mut r)?;
        let mac = self.sim.component_mut(self.mac);
        mac.load(&mut r)?;
        if let Some(clique) = mac.clique.as_deref_mut() {
            clique.load(&mut r)?;
        }
        self.sim.component_mut(self.channel).load(&mut r)?;
        self.sim.component_mut(self.ap).load(&mut r)?;
        self.sim.component_mut(self.traffic).load(&mut r)?;
        r.expect_end()
    }
}
