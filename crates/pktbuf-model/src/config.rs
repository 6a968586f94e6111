//! Dimensioning parameters of the RADS and CFDS memory architectures.

use crate::error::ConfigError;
use crate::rate::LineRate;
use serde::{Deserialize, Serialize};

/// Random access time of the paper's DRAM device in nanoseconds: 32 slots
/// at OC-3072 and 8 at OC-768, the granularities `B` of its two design
/// points. The default `B` of a configuration is this time in slots.
const PAPER_DRAM_RANDOM_ACCESS_NS: f64 = 102.4;

/// Longest lookahead a configuration may ask for, in slots. The lookahead
/// ring holds an 8-byte entry per slot from construction and a 4-byte link
/// per slot from the first request, so this caps one buffer's ring at
/// 48 MiB. The longest zero-miss minimum of any shipped design point or paper
/// figure is 15 873 slots (RADS, Q = 512, B = 32); 2^22 leaves room for
/// sweeps.
pub const MAX_LOOKAHEAD_SLOTS: usize = 1 << 22;

/// Most physical queues (`k × Q`) a CFDS configuration may have. The DRAM
/// store, the renaming table and the DRAM scheduler allocate state per
/// physical queue at construction. The most any shipped design point uses is
/// 2 048 (k = 2, Q = 1 024); 2^20 leaves room for sweeps.
pub const MAX_PHYSICAL_QUEUES: usize = 1 << 20;

/// Most DRAM banks (`M`) a CFDS configuration may have. A buffer holds one
/// 40-byte bank state machine per bank from construction, so this caps its
/// bank array at 2.5 MiB. The most any shipped design point or paper
/// artefact uses is 256 (Table 2); 2^16 leaves room for sweeps.
pub const MAX_BANKS: usize = 1 << 16;

/// ECQF zero-miss minimum lookahead `Q·(g − 1) + 1` (§3), `None` where it
/// overflows (or `g` is zero).
fn zero_miss_lookahead(num_queues: usize, granularity: usize) -> Option<usize> {
    num_queues
        .checked_mul(granularity.checked_sub(1)?)?
        .checked_add(1)
}

/// Refuses an explicit lookahead below the zero-miss minimum, and any
/// effective lookahead past [`MAX_LOOKAHEAD_SLOTS`].
fn check_lookahead(
    num_queues: usize,
    granularity: usize,
    lookahead: Option<usize>,
) -> Result<(), ConfigError> {
    let too_large = |requested| ConfigError::TooLarge {
        parameter: "lookahead",
        unit: "slots",
        requested,
        maximum: MAX_LOOKAHEAD_SLOTS,
    };
    let minimum = zero_miss_lookahead(num_queues, granularity).ok_or(too_large(None))?;
    let effective = lookahead.unwrap_or(minimum);
    if effective < minimum {
        return Err(ConfigError::LookaheadTooShort {
            requested: effective,
            minimum,
        });
    }
    if effective > MAX_LOOKAHEAD_SLOTS {
        return Err(too_large(Some(effective)));
    }
    Ok(())
}

/// Configuration of the Random Access DRAM System (RADS) baseline (§3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RadsConfig {
    /// Number of VOQs `Q`.
    pub num_queues: usize,
    /// DRAM access granularity `B` in cells.
    pub granularity: usize,
    /// Lookahead length in slots. `None` selects the ECQF minimum
    /// `Q·(B − 1) + 1`.
    pub lookahead: Option<usize>,
}

impl RadsConfig {
    /// Builds the paper's design point for a line rate: `B` is the random
    /// access time of the paper's 102.4 ns DRAM in slots (8 at OC-768, 32 at
    /// OC-3072), lookahead defaults to the ECQF minimum.
    pub fn for_line_rate(line_rate: LineRate, num_queues: usize) -> Self {
        RadsConfig {
            num_queues,
            granularity: line_rate.rads_granularity(PAPER_DRAM_RANDOM_ACCESS_NS),
            lookahead: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is zero, the lookahead is
    /// below the ECQF zero-miss minimum, or it is past
    /// [`MAX_LOOKAHEAD_SLOTS`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_queues == 0 {
            return Err(ConfigError::ZeroParameter("num_queues"));
        }
        if self.granularity == 0 {
            return Err(ConfigError::ZeroParameter("granularity"));
        }
        check_lookahead(self.num_queues, self.granularity, self.lookahead)
    }

    /// ECQF minimum lookahead `Q·(B − 1) + 1` (§3), saturating at
    /// `usize::MAX` where that overflows (which [`RadsConfig::validate`]
    /// refuses).
    pub fn min_lookahead(&self) -> usize {
        zero_miss_lookahead(self.num_queues, self.granularity).unwrap_or(usize::MAX)
    }

    /// Effective lookahead: the explicit value or the ECQF minimum.
    pub fn effective_lookahead(&self) -> usize {
        self.lookahead.unwrap_or_else(|| self.min_lookahead())
    }
}

/// Configuration of the Conflict-Free DRAM System (CFDS) — the paper's
/// contribution (§5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CfdsConfig {
    /// Number of *logical* VOQs `Q`.
    pub num_queues: usize,
    /// Oversubscription factor `k`: number of physical queues is
    /// `k × num_queues` (§6). The DRAM scheduler manages reads and writes, so
    /// the effective number of queue streams seen by the DSS is `2 ×` this.
    pub physical_queue_factor: usize,
    /// CFDS per-access granularity `b` in cells (must divide `B`).
    pub granularity: usize,
    /// RADS granularity `B` in cells, i.e. the DRAM random access time in
    /// slots.
    pub rads_granularity: usize,
    /// Number of DRAM banks `M`.
    pub num_banks: usize,
    /// Lookahead length in slots. `None` selects the ECQF minimum computed with
    /// granularity `b`.
    pub lookahead: Option<usize>,
}

/// The paper's OC-3072 evaluation: `Q = 512`, `B = 32`, `b = 4`, `M = 256`,
/// one physical queue per logical queue and the ECQF minimum lookahead.
impl Default for CfdsConfig {
    fn default() -> Self {
        CfdsConfig {
            num_queues: 512,
            physical_queue_factor: 1,
            granularity: 4,
            rads_granularity: LineRate::Oc3072.rads_granularity(PAPER_DRAM_RANDOM_ACCESS_NS),
            num_banks: 256,
            lookahead: None,
        }
    }
}

impl CfdsConfig {
    /// Number of banks per group, `B/b`.
    pub fn banks_per_group(&self) -> usize {
        self.rads_granularity / self.granularity
    }

    /// Number of bank groups `G = M / (B/b)`.
    pub fn num_groups(&self) -> usize {
        self.num_banks / self.banks_per_group()
    }

    /// Number of physical queues (`k × Q`), saturating at `usize::MAX` where
    /// that overflows (which [`CfdsConfig::validate`] refuses).
    pub fn num_physical_queues(&self) -> usize {
        self.physical_queue_factor.saturating_mul(self.num_queues)
    }

    /// Physical queues assigned to each group (ceiling).
    pub fn queues_per_group(&self) -> usize {
        let g = self.num_groups();
        self.num_physical_queues().div_ceil(g)
    }

    /// ECQF minimum lookahead computed with the CFDS granularity `b`,
    /// saturating like [`RadsConfig::min_lookahead`].
    pub fn min_lookahead(&self) -> usize {
        zero_miss_lookahead(self.num_queues, self.granularity).unwrap_or(usize::MAX)
    }

    /// Effective lookahead: the explicit value or the ECQF minimum.
    pub fn effective_lookahead(&self) -> usize {
        self.lookahead.unwrap_or_else(|| self.min_lookahead())
    }

    /// Validates divisibility and positivity constraints.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `b` does not divide `B`, `B/b` does not
    /// divide `M`, any parameter is zero, `k × Q` is past
    /// [`MAX_PHYSICAL_QUEUES`], `M` is past [`MAX_BANKS`], or the lookahead
    /// is below the zero-miss minimum or past [`MAX_LOOKAHEAD_SLOTS`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (v, name) in [
            (self.num_queues, "num_queues"),
            (self.physical_queue_factor, "physical_queue_factor"),
            (self.granularity, "granularity"),
            (self.rads_granularity, "rads_granularity"),
            (self.num_banks, "num_banks"),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroParameter(name));
            }
        }
        let physical = self.physical_queue_factor.checked_mul(self.num_queues);
        if physical.is_none_or(|n| n > MAX_PHYSICAL_QUEUES) {
            return Err(ConfigError::TooLarge {
                parameter: "k·Q",
                unit: "physical queues",
                requested: physical,
                maximum: MAX_PHYSICAL_QUEUES,
            });
        }
        if self.num_banks > MAX_BANKS {
            return Err(ConfigError::TooLarge {
                parameter: "num_banks",
                unit: "banks",
                requested: Some(self.num_banks),
                maximum: MAX_BANKS,
            });
        }
        if !self.rads_granularity.is_multiple_of(self.granularity) {
            return Err(ConfigError::GranularityNotDivisor {
                b: self.granularity,
                big_b: self.rads_granularity,
            });
        }
        let bpg = self.banks_per_group();
        if !self.num_banks.is_multiple_of(bpg) {
            return Err(ConfigError::BanksNotDivisible {
                banks: self.num_banks,
                banks_per_group: bpg,
            });
        }
        check_lookahead(self.num_queues, self.granularity, self.lookahead)
    }
}

/// Optional knobs a declarative experiment spec can turn without rebuilding a
/// whole configuration — the hook the `sim` spec layer applies on top of the
/// parameters it sweeps explicitly.
///
/// Every field is `None` by default, meaning "keep the configuration's own
/// value". `dram_capacity_cells` is a *buffer-level* limit (it bounds the DRAM
/// store rather than the dimensioning maths), so [`ConfigOverrides::apply_rads`]
/// and [`ConfigOverrides::apply_cfds`] ignore it; the buffer construction site
/// is expected to honour it where the design supports a capacity limit.
///
/// An overrides object serialises only the knobs that are set, and rejects
/// unknown keys when read back (typos in spec files should fail loudly, not
/// silently override nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ConfigOverrides {
    /// Explicit lookahead length in slots (default: the ECQF minimum).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub lookahead: Option<usize>,
    /// CFDS physical-queue oversubscription factor `k` (§6).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub physical_queue_factor: Option<usize>,
    /// Total DRAM capacity in cells (buffer-level; CFDS only today).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dram_capacity_cells: Option<u64>,
}

impl ConfigOverrides {
    /// Overrides nothing.
    pub fn none() -> Self {
        ConfigOverrides::default()
    }

    /// Whether every knob is left at "keep the configuration's value".
    pub fn is_none(&self) -> bool {
        *self == ConfigOverrides::default()
    }

    /// Applies the relevant knobs to a RADS configuration.
    ///
    /// The result is *not* revalidated here — callers that accept untrusted
    /// specs should run [`RadsConfig::validate`] afterwards.
    pub fn apply_rads(&self, mut cfg: RadsConfig) -> RadsConfig {
        if let Some(l) = self.lookahead {
            cfg.lookahead = Some(l);
        }
        cfg
    }

    /// Applies the relevant knobs to a CFDS configuration.
    ///
    /// The result is *not* revalidated here — callers that accept untrusted
    /// specs should run [`CfdsConfig::validate`] afterwards.
    pub fn apply_cfds(&self, mut cfg: CfdsConfig) -> CfdsConfig {
        if let Some(l) = self.lookahead {
            cfg.lookahead = Some(l);
        }
        if let Some(k) = self.physical_queue_factor {
            cfg.physical_queue_factor = k;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rads_min_lookahead_formula() {
        let cfg = RadsConfig::for_line_rate(LineRate::Oc3072, 512);
        assert_eq!(cfg.granularity, 32);
        assert_eq!(cfg.min_lookahead(), 512 * 31 + 1);
        assert_eq!(cfg.effective_lookahead(), 512 * 31 + 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn rads_rejects_short_lookahead() {
        let mut cfg = RadsConfig::for_line_rate(LineRate::Oc768, 128);
        cfg.lookahead = Some(10);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::LookaheadTooShort { .. })
        ));
        cfg.lookahead = Some(cfg.min_lookahead());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn sizes_past_their_allocation_bounds_are_refused() {
        let too_large = |parameter, unit, requested, maximum| ConfigError::TooLarge {
            parameter,
            unit,
            requested,
            maximum,
        };
        let lookahead = |requested| too_large("lookahead", "slots", requested, MAX_LOOKAHEAD_SLOTS);
        let mut rads = RadsConfig::for_line_rate(LineRate::Oc768, 128);
        rads.lookahead = Some(MAX_LOOKAHEAD_SLOTS);
        assert_eq!(rads.validate(), Ok(()));
        rads.lookahead = Some(MAX_LOOKAHEAD_SLOTS + 1);
        assert_eq!(
            rads.validate(),
            Err(lookahead(Some(MAX_LOOKAHEAD_SLOTS + 1)))
        );
        // The default lookahead is the minimum, bounded the same way; a
        // minimum that overflows saturates instead of wrapping.
        rads.lookahead = None;
        rads.num_queues = MAX_LOOKAHEAD_SLOTS;
        assert_eq!(rads.validate(), Err(lookahead(Some(rads.min_lookahead()))));
        rads.num_queues = usize::MAX / 2;
        assert_eq!(rads.min_lookahead(), usize::MAX);
        assert_eq!(rads.validate(), Err(lookahead(None)));

        let physical =
            |requested| too_large("k·Q", "physical queues", requested, MAX_PHYSICAL_QUEUES);
        let cfds = |physical_queue_factor| {
            CfdsConfig {
                physical_queue_factor,
                ..CfdsConfig::default()
            }
            .validate()
        };
        assert!(cfds(MAX_PHYSICAL_QUEUES / 512).is_ok());
        assert_eq!(
            cfds(MAX_PHYSICAL_QUEUES / 512 + 1),
            Err(physical(Some(MAX_PHYSICAL_QUEUES + 512)))
        );
        assert_eq!(cfds(usize::MAX / 4), Err(physical(None)));
        let long = CfdsConfig {
            lookahead: Some(MAX_LOOKAHEAD_SLOTS + 1),
            ..CfdsConfig::default()
        };
        assert_eq!(
            long.validate(),
            Err(lookahead(Some(MAX_LOOKAHEAD_SLOTS + 1)))
        );
        let banks = |num_banks| {
            CfdsConfig {
                num_banks,
                ..CfdsConfig::default()
            }
            .validate()
        };
        assert!(banks(MAX_BANKS).is_ok());
        for m in [MAX_BANKS * 2, 1 << 31, 1 << 63] {
            assert_eq!(
                banks(m),
                Err(too_large("num_banks", "banks", Some(m), MAX_BANKS))
            );
        }
    }

    #[test]
    fn rads_rejects_zero_parameters() {
        let mut cfg = RadsConfig::for_line_rate(LineRate::Oc768, 128);
        cfg.num_queues = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroParameter("num_queues"))
        );
        let mut cfg = RadsConfig::for_line_rate(LineRate::Oc768, 128);
        cfg.granularity = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroParameter("granularity"))
        );
    }

    #[test]
    fn cfds_defaults_match_paper() {
        let cfg = CfdsConfig::default();
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.num_queues, 512);
        assert_eq!(cfg.rads_granularity, 32);
        assert_eq!(cfg.granularity, 4);
        assert_eq!(cfg.num_banks, 256);
        assert_eq!(cfg.banks_per_group(), 8);
        assert_eq!(cfg.num_groups(), 32);
        assert_eq!(cfg.queues_per_group(), 16);
        assert_eq!(cfg.min_lookahead(), 512 * 3 + 1);
    }

    #[test]
    fn cfds_divisibility_checks() {
        let err = CfdsConfig {
            granularity: 5,
            ..CfdsConfig::default()
        }
        .validate();
        assert!(matches!(
            err,
            Err(ConfigError::GranularityNotDivisor { .. })
        ));

        let err = CfdsConfig {
            granularity: 4,
            num_banks: 100,
            ..CfdsConfig::default()
        }
        .validate();
        assert!(matches!(err, Err(ConfigError::BanksNotDivisible { .. })));
    }

    #[test]
    fn cfds_allows_fewer_queues_than_groups() {
        // B/b = 2, G = 128 groups but only 4 physical queues: some groups are
        // simply unused, which is legal (and what the degenerate b = B RADS
        // configuration looks like).
        let cfg = CfdsConfig {
            num_queues: 4,
            granularity: 16,
            num_banks: 256,
            ..CfdsConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.num_groups(), 128);
        assert_eq!(cfg.queues_per_group(), 1);
    }

    #[test]
    fn cfds_lookahead_validation() {
        let with_lookahead = |slots| CfdsConfig {
            lookahead: Some(slots),
            ..CfdsConfig::default()
        };
        assert!(matches!(
            with_lookahead(3).validate(),
            Err(ConfigError::LookaheadTooShort { .. })
        ));
        let ok = with_lookahead(2000);
        assert_eq!(ok.validate(), Ok(()));
        assert_eq!(ok.effective_lookahead(), 2000);
    }

    #[test]
    fn cfds_oversubscription() {
        let cfg = CfdsConfig {
            physical_queue_factor: 2,
            ..CfdsConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.num_physical_queues(), 1024);
        assert_eq!(cfg.queues_per_group(), 32);
    }

    #[test]
    fn overrides_default_to_keeping_everything() {
        let ov = ConfigOverrides::none();
        assert!(ov.is_none());
        let rads = RadsConfig::for_line_rate(LineRate::Oc3072, 512);
        assert_eq!(ov.apply_rads(rads), rads);
        assert_eq!(ov.apply_cfds(CfdsConfig::default()), CfdsConfig::default());
    }

    #[test]
    fn overrides_apply_each_knob() {
        let ov = ConfigOverrides {
            lookahead: Some(20_000),
            physical_queue_factor: Some(2),
            dram_capacity_cells: Some(4_096),
        };
        assert!(!ov.is_none());
        let rads = ov.apply_rads(RadsConfig::for_line_rate(LineRate::Oc3072, 512));
        assert_eq!(rads.lookahead, Some(20_000));
        let cfds = ov.apply_cfds(CfdsConfig::default());
        assert_eq!(cfds.validate(), Ok(()));
        assert_eq!(cfds.lookahead, Some(20_000));
        assert_eq!(cfds.physical_queue_factor, 2);
    }

    #[test]
    fn zero_parameter_detection_in_cfds() {
        let cfg = CfdsConfig {
            num_banks: 0,
            ..CfdsConfig::default()
        };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter("num_banks")));
        let cfg = CfdsConfig {
            physical_queue_factor: 0,
            ..CfdsConfig::default()
        };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroParameter("physical_queue_factor"))
        );
    }
}
