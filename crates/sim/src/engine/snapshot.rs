//! Engine checkpoint serialization: the byte format behind
//! [`Simulator::checkpoint`] and [`Simulator::resume`].
//!
//! The checkpoint captures everything that evolves during a run — the kernel
//! clock and `(time, seq)` counter, every pending event (general heap and
//! both timer tiers), the statistics and throughput-binning state,
//! per-station MAC/policy/RNG state, the transmission slab, the AP
//! controller, traffic sources, and the channel's frame-error RNG stream.
//! Build-time configuration (PHY, topology, policy parameters) is *not*
//! captured: a checkpoint only resumes into a simulator freshly built from
//! the identical scenario. The facade (`engine/mod.rs`) stays free of the
//! byte-level walk; each component serializes itself through its
//! [`wlan_des::Component`] `save`/`load` hooks and this module only encodes
//! the kernel and world layers around them.

use super::event::Event;
use super::{Simulator, CHANNEL_ID};
use crate::stats::SimStats;
use serde::{Deserialize, Serialize};
use wlan_des::snapshot::{SnapshotError, StateReader, StateWriter};
use wlan_des::QueueSnapshot;

/// Magic prefix identifying serialized engine checkpoints.
const CHECKPOINT_MAGIC: &[u8] = b"WLANCKPT";

/// Checkpoint format version. Bump on **any** change to the byte layout —
/// resume never attempts cross-version decoding.
const CHECKPOINT_VERSION: u32 = 2;

impl Simulator {
    /// Serialize the complete mutable simulation state into a byte
    /// checkpoint.
    ///
    /// The checkpoint captures everything that evolves during a run — the
    /// kernel clock and `(time, seq)` counter, every pending event (general
    /// heap and both timer tiers), the statistics and throughput-binning
    /// state, per-station MAC/policy/RNG state, the transmission slab (with
    /// generations and free-list structure), the AP controller, traffic
    /// sources, and the channel's frame-error RNG stream. Build-time
    /// configuration (PHY, topology, policies' parameters) is *not*
    /// captured: [`resume`](Self::resume) must be called on a simulator
    /// freshly built from the identical scenario, and the resumed run is
    /// then bit-identical to one that never checkpointed.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_bytes(CHECKPOINT_MAGIC);
        w.put_u32(CHECKPOINT_VERSION);

        // Kernel: clock, event counter, (time, seq) counter and every
        // pending event. Pop order is a pure function of the (time, seq)
        // entry multiset, so re-scheduling these entries with their original
        // seqs reproduces the identical pop order.
        w.put_time(self.sim.now());
        w.put_u64(self.sim.events_processed());
        let queue = self.sim.queue_snapshot();
        w.put_u64(queue.next_seq);
        w.put_usize(queue.general.len());
        for (time, seq, target, event) in &queue.general {
            w.put_time(*time);
            w.put_u64(*seq);
            w.put_usize(*target);
            event.save(&mut w);
        }
        w.put_usize(queue.tiers.len());
        for tier in &queue.tiers {
            w.put_usize(tier.len());
            for &(time, seq, index, gen) in tier {
                w.put_time(time);
                w.put_u64(seq);
                w.put_usize(index);
                w.put_u64(gen);
            }
        }

        // World measurement state. The statistics go through the serde value
        // codec (every stats type already serializes for campaign output).
        let world = self.sim.world();
        w.put_value(&world.stats.to_value());
        w.put_time(world.measure_start);
        w.put_time(world.bin_start);
        w.put_u64(world.bin_bits);
        w.put_u32(world.series_stride);
        w.put_u32(world.stride_ticks);

        // Components.
        let mac = self.sim.component(self.mac);
        w.put_usize(mac.active.len());
        for &node in &mac.active {
            w.put_usize(node);
        }
        mac.stations.save(&mut w);
        match mac.clique.as_deref() {
            None => w.put_bool(false),
            Some(clique) => {
                w.put_bool(true);
                clique.save(&mut w);
            }
        }
        self.sim.component(self.channel).save(&mut w);
        self.sim.component(self.ap).save(&mut w);
        self.sim.component(self.traffic).save(&mut w);

        // The channel's frame-error RNG stream (the only component stream).
        let rng = self
            .sim
            .component_rng(CHANNEL_ID)
            .expect("the channel RNG is registered at build time");
        w.put_rng(rng);
        w.finish()
    }

    /// Restore state captured by [`checkpoint`](Self::checkpoint) into this
    /// simulator, which must have been freshly built from the identical
    /// scenario (same PHY, topology, policies, traffic, seed).
    ///
    /// On success the simulator continues bit-identically to the run that
    /// produced the checkpoint. On error the simulator may have been
    /// partially overwritten and must be discarded (rebuild and recompute —
    /// the campaign layer treats a failed resume as a cache miss).
    pub fn resume(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = StateReader::new(bytes);
        if r.get_bytes()? != CHECKPOINT_MAGIC {
            return Err(SnapshotError::custom("not a WLAN engine checkpoint"));
        }
        let version = r.get_u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(SnapshotError::custom(format!(
                "checkpoint format v{version}, this engine reads v{CHECKPOINT_VERSION}"
            )));
        }

        let now = r.get_time()?;
        let events_processed = r.get_u64()?;
        let next_seq = r.get_u64()?;
        let general_len = r.get_usize()?;
        let mut general = Vec::with_capacity(general_len.min(1 << 20));
        for _ in 0..general_len {
            let time = r.get_time()?;
            let seq = r.get_u64()?;
            let target = r.get_usize()?;
            let event = Event::load(&mut r)?;
            general.push((time, seq, target, event));
        }
        let tier_count = r.get_usize()?;
        let mut tiers = Vec::with_capacity(tier_count.min(1 << 10));
        for _ in 0..tier_count {
            let len = r.get_usize()?;
            let mut entries = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                entries.push((r.get_time()?, r.get_u64()?, r.get_usize()?, r.get_u64()?));
            }
            tiers.push(entries);
        }

        let stats = SimStats::from_value(&r.get_value()?).map_err(SnapshotError::custom)?;
        let measure_start = r.get_time()?;
        let bin_start = r.get_time()?;
        let bin_bits = r.get_u64()?;
        let series_stride = r.get_u32()?;
        let stride_ticks = r.get_u32()?;

        self.sim.restore_kernel_state(
            now,
            events_processed,
            QueueSnapshot {
                general,
                tiers,
                next_seq,
            },
        );
        {
            let world = self.sim.world_mut();
            world.stats = stats;
            world.measure_start = measure_start;
            world.bin_start = bin_start;
            world.bin_bits = bin_bits;
            world.series_stride = series_stride;
            world.stride_ticks = stride_ticks;
        }

        let active_len = r.get_usize()?;
        let mut active = Vec::with_capacity(active_len.min(1 << 20));
        for _ in 0..active_len {
            active.push(r.get_usize()?);
        }
        {
            let mac = self.sim.component_mut(self.mac);
            mac.active = active;
            mac.stations.load(&mut r)?;
            match (r.get_bool()?, mac.clique.as_deref_mut()) {
                (false, None) => {}
                (true, Some(clique)) => clique.load(&mut r)?,
                (clique, _) => {
                    return Err(SnapshotError::custom(format!(
                        "checkpoint of the {} sensing path does not match the scenario",
                        if clique { "clique" } else { "per-station" }
                    )))
                }
            }
        }
        {
            let channel_h = self.channel;
            self.sim.component_mut(channel_h).load(&mut r)?;
        }
        {
            let ap_h = self.ap;
            self.sim.component_mut(ap_h).load(&mut r)?;
        }
        {
            let traffic_h = self.traffic;
            self.sim.component_mut(traffic_h).load(&mut r)?;
        }
        let rng = r.get_rng()?;
        self.sim.set_component_rng(CHANNEL_ID, rng);
        r.expect_end()?;
        Ok(())
    }
}
