//! Aggregate statistics of a packet-buffer run.

use serde::{Deserialize, Serialize, Serializer};

/// Counters accumulated by a packet buffer over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Deserialize)]
pub struct BufferStats {
    /// Slots simulated.
    pub slots: u64,
    /// Cells accepted from the transmission line.
    pub arrivals: u64,
    /// Cells dropped at the tail SRAM.
    pub drops: u64,
    /// Requests accepted from the arbiter.
    pub requests: u64,
    /// Cells granted to the arbiter.
    pub grants: u64,
    /// Requests that became due with no cell in the head SRAM.
    pub misses: u64,
    /// Grants whose cell violated per-queue FIFO order.
    pub order_violations: u64,
    /// DRAM read accesses performed.
    pub dram_reads: u64,
    /// DRAM write accesses performed.
    pub dram_writes: u64,
    /// Bank conflicts detected (must stay zero for CFDS).
    pub bank_conflicts: u64,
    /// DSS issue opportunities wasted with a non-empty requests register.
    pub dss_stalls: u64,
    /// Replenishments selected by the MMA that found no block in DRAM.
    pub unfulfilled_replenishments: u64,
    /// Writebacks blocked because the DRAM group (and renaming) had no room.
    pub blocked_writebacks: u64,
    /// Highest head-SRAM occupancy observed (cells).
    pub peak_head_sram_cells: u64,
    /// Highest tail-SRAM occupancy observed (cells).
    pub peak_tail_sram_cells: u64,
    /// Highest requests-register occupancy observed (entries).
    pub peak_rr_entries: u64,
    /// Largest DSS queueing delay observed (slots).
    pub max_dss_delay_slots: u64,
}

// Hand-written (the derive has no computed fields): the counters in
// declaration order, then the derived `loss_free` verdict.
impl Serialize for BufferStats {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("BufferStats", 18)?;
        st.serialize_field("slots", &self.slots)?;
        st.serialize_field("arrivals", &self.arrivals)?;
        st.serialize_field("drops", &self.drops)?;
        st.serialize_field("requests", &self.requests)?;
        st.serialize_field("grants", &self.grants)?;
        st.serialize_field("misses", &self.misses)?;
        st.serialize_field("order_violations", &self.order_violations)?;
        st.serialize_field("dram_reads", &self.dram_reads)?;
        st.serialize_field("dram_writes", &self.dram_writes)?;
        st.serialize_field("bank_conflicts", &self.bank_conflicts)?;
        st.serialize_field("dss_stalls", &self.dss_stalls)?;
        st.serialize_field(
            "unfulfilled_replenishments",
            &self.unfulfilled_replenishments,
        )?;
        st.serialize_field("blocked_writebacks", &self.blocked_writebacks)?;
        st.serialize_field("peak_head_sram_cells", &self.peak_head_sram_cells)?;
        st.serialize_field("peak_tail_sram_cells", &self.peak_tail_sram_cells)?;
        st.serialize_field("peak_rr_entries", &self.peak_rr_entries)?;
        st.serialize_field("max_dss_delay_slots", &self.max_dss_delay_slots)?;
        st.serialize_field("loss_free", &self.is_loss_free())?;
        st.end()
    }
}

impl BufferStats {
    /// Fraction of accepted requests that missed.
    pub fn miss_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.misses as f64 / self.requests as f64
        }
    }

    /// Whether the run upheld the worst-case guarantees the paper requires:
    /// no miss, no drop, no FIFO violation and no bank conflict.
    pub fn is_loss_free(&self) -> bool {
        self.misses == 0
            && self.drops == 0
            && self.order_violations == 0
            && self.bank_conflicts == 0
    }

    /// Adds the slot-grained counters a slot loop kept in locals (`delta`);
    /// the tail-SRAM peak is a maximum.
    pub(crate) fn absorb(&mut self, delta: &BufferStats) {
        self.slots += delta.slots;
        self.arrivals += delta.arrivals;
        self.drops += delta.drops;
        self.requests += delta.requests;
        self.grants += delta.grants;
        self.misses += delta.misses;
        self.order_violations += delta.order_violations;
        self.dram_reads += delta.dram_reads;
        self.dram_writes += delta.dram_writes;
        self.peak_tail_sram_cells = self.peak_tail_sram_cells.max(delta.peak_tail_sram_cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = BufferStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert!(s.is_loss_free());
    }

    #[test]
    fn rates_compute_fractions() {
        let s = BufferStats {
            requests: 100,
            misses: 5,
            arrivals: 90,
            drops: 10,
            ..BufferStats::default()
        };
        assert!((s.miss_rate() - 0.05).abs() < 1e-12);
        assert!(!s.is_loss_free());
    }

    #[test]
    fn loss_free_requires_all_four_conditions() {
        for field in 0..4 {
            let mut s = BufferStats::default();
            match field {
                0 => s.misses = 1,
                1 => s.drops = 1,
                2 => s.order_violations = 1,
                _ => s.bank_conflicts = 1,
            }
            assert!(!s.is_loss_free());
        }
    }
}
