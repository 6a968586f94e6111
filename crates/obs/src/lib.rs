//! Deterministic, zero-dependency instrumentation for the packet-buffer
//! stack.
//!
//! Three probe families, all clocked by slot time only (no wall clocks, no
//! RNG, no allocation after arm time):
//!
//! - [`Log2Histogram`] — fixed-shape latency/occupancy histograms whose merge
//!   is associative and commutative, so per-output and per-source partials
//!   combine into byte-identical reports in any merge order;
//! - [`SeriesRing`] — slot-sampled time-series of per-stage throughput,
//!   occupancy and stall causes in preallocated rings;
//! - [`FlightRecorder`] — a bounded ring of typed cell-lifecycle events
//!   ([`TraceEvent`]) renderable as Chrome trace-event JSON via
//!   [`chrome_trace_json`].
//!
//! Everything sits behind [`ObsConfig`]. The default, [`ObsConfig::off`],
//! arms nothing: consumers keep instrumentation state in `Option`s that stay
//! `None`, so the off path is byte-identical to an uninstrumented build (the
//! same discipline `fabric::faults` applies to empty fault plans).

mod hist;
mod series;
mod trace;

pub use hist::{bucket_of, bucket_upper_bound, Log2Histogram, HIST_BUCKETS};
pub use series::{SeriesRing, SeriesSample};
pub use trace::{
    chrome_trace_json, merge_events, EventKind, FlightRecorder, TraceEvent, TraceFilter,
};

/// Which probes to arm. [`ObsConfig::off`] (the `Default`) arms nothing and
/// is guaranteed overhead-free; [`ObsConfig::standard`] is the
/// histogram+series preset the benchmarks use to measure instrumentation
/// overhead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Arm log2 latency histograms at egress ports (and first-injection
    /// latency at closed-loop sources when transport is enabled).
    pub latency_hist: bool,
    /// Arm per-VOQ backlog and per-link credit-occupancy histograms.
    pub occupancy_hist: bool,
    /// Time-series sampling stride in slots; 0 disables the series probes.
    pub series_stride: u64,
    /// Maximum samples kept per stage series ring.
    pub series_capacity: usize,
    /// Flight-recorder ring capacity per stage; 0 disables the recorder.
    pub trace_capacity: usize,
    /// Restrict the flight recorder to these `(src, dest)` flows; empty
    /// records every flow.
    pub trace_flows: Vec<(u32, u32)>,
    /// First slot (inclusive) the flight recorder is armed for.
    pub trace_from_slot: u64,
    /// Last slot (inclusive) the flight recorder is armed for.
    pub trace_to_slot: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl ObsConfig {
    /// Arm nothing. Consumers must keep the off path byte-identical to an
    /// uninstrumented run.
    #[must_use]
    pub const fn off() -> Self {
        Self {
            latency_hist: false,
            occupancy_hist: false,
            series_stride: 0,
            series_capacity: 0,
            trace_capacity: 0,
            trace_flows: Vec::new(),
            trace_from_slot: 0,
            trace_to_slot: u64::MAX,
        }
    }

    /// The histogram + series preset used by the overhead benchmarks: both
    /// histogram families on, series sampled every 64 slots, recorder off.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            latency_hist: true,
            occupancy_hist: true,
            series_stride: 64,
            series_capacity: 1024,
            ..Self::off()
        }
    }

    /// True when no probe is armed.
    #[must_use]
    pub fn is_off(&self) -> bool {
        !self.latency_hist
            && !self.occupancy_hist
            && !self.series_enabled()
            && !self.trace_enabled()
    }

    /// True when the time-series probes are armed.
    #[must_use]
    pub fn series_enabled(&self) -> bool {
        self.series_stride > 0 && self.series_capacity > 0
    }

    /// True when the flight recorder is armed.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace_capacity > 0
    }

    /// The recorder filter this configuration describes.
    #[must_use]
    pub fn trace_filter(&self) -> TraceFilter {
        TraceFilter {
            flows: self.trace_flows.clone(),
            from_slot: self.trace_from_slot,
            to_slot: self.trace_to_slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ObsConfig;

    #[test]
    fn off_is_default_and_arms_nothing() {
        let off = ObsConfig::default();
        assert_eq!(off, ObsConfig::off());
        assert!(off.is_off());
        assert!(!off.series_enabled());
        assert!(!off.trace_enabled());
    }

    #[test]
    fn standard_arms_histograms_and_series_only() {
        let std = ObsConfig::standard();
        assert!(!std.is_off());
        assert!(std.latency_hist && std.occupancy_hist);
        assert!(std.series_enabled());
        assert!(!std.trace_enabled());
    }
}
