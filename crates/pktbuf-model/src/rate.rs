//! Line rates and derived per-cell timing.

use crate::cell::CELL_BYTES;
use crate::time::SlotDuration;
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::str::FromStr;

/// SONET/SDH line rates considered by the paper, plus a custom escape hatch.
///
/// The basic time-slot of the buffer is the transmission time of one 64-byte
/// cell at the line rate; e.g. 3.2 ns at OC-3072 (§2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LineRate {
    /// OC-192, 10 Gb/s.
    Oc192,
    /// OC-768, 40 Gb/s.
    Oc768,
    /// OC-3072, 160 Gb/s — the paper's headline target.
    #[default]
    Oc3072,
    /// Arbitrary rate in gigabits per second.
    CustomGbps(f64),
}

impl LineRate {
    /// Line rate in bits per second.
    ///
    /// The paper uses the rounded "10 / 40 / 160 Gb/s" figures rather than the
    /// exact SONET payload rates, and so do we.
    pub fn bits_per_second(self) -> f64 {
        match self {
            LineRate::Oc192 => 10e9,
            LineRate::Oc768 => 40e9,
            LineRate::Oc3072 => 160e9,
            LineRate::CustomGbps(g) => g * 1e9,
        }
    }

    /// Line rate in gigabits per second.
    pub fn gbps(self) -> f64 {
        self.bits_per_second() / 1e9
    }

    /// Duration of one time slot: the transmission time of a 64-byte cell.
    ///
    /// OC-768 → 12.8 ns, OC-3072 → 3.2 ns.
    pub fn slot_duration(self) -> SlotDuration {
        let bits = (CELL_BYTES * 8) as f64;
        SlotDuration::from_ns(bits / self.bits_per_second() * 1e9)
    }

    /// Packet-buffer bandwidth required for an input-queued architecture:
    /// twice the line rate (each cell is written once and read once).
    pub fn required_buffer_bandwidth_bps(self) -> f64 {
        2.0 * self.bits_per_second()
    }

    /// Rule-of-thumb buffer capacity: round-trip-time × line rate (§2).
    ///
    /// `rtt_seconds` defaults to 0.2 s in the paper, giving 4 GB at OC-3072.
    pub fn buffer_capacity_bytes(self, rtt_seconds: f64) -> f64 {
        self.bits_per_second() * rtt_seconds / 8.0
    }

    /// The RADS data granularity `B`: number of cells that must be transferred
    /// per DRAM access so that one batch is produced/consumed per DRAM random
    /// access time (`ceil(t_rc / slot)`).
    pub fn rads_granularity(self, dram_random_access_ns: f64) -> usize {
        let slot_ns = self.slot_duration().as_ns();
        (dram_random_access_ns / slot_ns).ceil() as usize
    }
}

impl fmt::Display for LineRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineRate::Oc192 => write!(f, "OC-192 (10 Gb/s)"),
            LineRate::Oc768 => write!(f, "OC-768 (40 Gb/s)"),
            LineRate::Oc3072 => write!(f, "OC-3072 (160 Gb/s)"),
            LineRate::CustomGbps(g) => write!(f, "custom ({g} Gb/s)"),
        }
    }
}

/// Error returned when a line-rate string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLineRateError {
    input: String,
}

impl fmt::Display for ParseLineRateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse {:?} as a line rate (try \"oc192\", \"oc768\", \"oc3072\", or a \
             number of Gb/s like \"2.5\")",
            self.input
        )
    }
}

impl std::error::Error for ParseLineRateError {}

impl FromStr for LineRate {
    type Err = ParseLineRateError;

    /// Parses both the CLI short forms (`oc3072`, `oc-768`, `2.5`, `2.5gbps`)
    /// and this type's own [`fmt::Display`] output (`OC-3072 (160 Gb/s)`,
    /// `custom (2.5 Gb/s)`), so rates round-trip through reports, JSON and
    /// command lines.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseLineRateError {
            input: s.to_owned(),
        };
        let lower = s.trim().to_ascii_lowercase();
        if let Some(rest) = lower.strip_prefix("oc") {
            let rest = rest.strip_prefix('-').unwrap_or(rest);
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            // Whatever follows the digits must be nothing, or the
            // parenthesised Gb/s tail the `Display` form appends — reject
            // trailing garbage like "oc768xyz" or "oc3072 Tb/s".
            let tail = rest[digits.len()..].trim();
            if !(tail.is_empty() || (tail.starts_with('(') && tail.contains("gb/s"))) {
                return Err(err());
            }
            return match digits.as_str() {
                "192" => Ok(LineRate::Oc192),
                "768" => Ok(LineRate::Oc768),
                "3072" => Ok(LineRate::Oc3072),
                _ => Err(err()),
            };
        }
        // "custom (2.5 Gb/s)" → the number between '(' and "gb/s" or ')'.
        let number_part = if let Some(open) = lower.find('(') {
            let inner = &lower[open + 1..];
            let end = inner
                .find("gb/s")
                .or_else(|| inner.find(')'))
                .unwrap_or(inner.len());
            inner[..end].trim().to_owned()
        } else {
            // "2.5", "2.5g", "2.5gbps", "2.5 gb/s" — strip at most one unit
            // suffix, so "2.5ggg" stays garbage instead of parsing as 2.5.
            let stripped = ["gb/s", "gbps", "g"]
                .iter()
                .find_map(|unit| lower.strip_suffix(unit))
                .unwrap_or(&lower);
            stripped.trim().to_owned()
        };
        let gbps: f64 = number_part.parse().map_err(|_| err())?;
        if gbps.is_finite() && gbps > 0.0 {
            Ok(LineRate::CustomGbps(gbps))
        } else {
            Err(err())
        }
    }
}

// Hand-written (the derive has no data-carrying variants, and would spell the
// others by variant name): a line rate is a JSON string in its `Display`
// form, and `FromStr` accepts that form back; bare JSON numbers are accepted
// as Gb/s.
impl Serialize for LineRate {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for LineRate {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> de::Visitor<'de> for V {
            type Value = LineRate;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a line rate string or a number of Gb/s")
            }
            fn visit_str<E: de::Error>(self, v: &str) -> Result<LineRate, E> {
                v.parse().map_err(|e: ParseLineRateError| E::custom(e))
            }
            fn visit_f64<E: de::Error>(self, v: f64) -> Result<LineRate, E> {
                if v.is_finite() && v > 0.0 {
                    Ok(LineRate::CustomGbps(v))
                } else {
                    Err(E::custom(format_args!("{v} Gb/s is not a valid line rate")))
                }
            }
        }
        deserializer.deserialize_any(V)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn slot_durations_match_paper() {
        assert!(close(LineRate::Oc3072.slot_duration().as_ns(), 3.2));
        assert!(close(LineRate::Oc768.slot_duration().as_ns(), 12.8));
        assert!(close(LineRate::Oc192.slot_duration().as_ns(), 51.2));
    }

    #[test]
    fn rads_granularity_matches_paper_design_points() {
        // The paper assumes 48 ns DRAM random access time and sets B = 8 for
        // OC-768 and B = 32 for OC-3072 (§7). ceil(48/12.8) = 4 would be the
        // exact value; the paper conservatively doubles it to 8 — our helper
        // reports the exact ceiling, so check the OC-3072 point where they
        // agree up to the same rounding.
        assert_eq!(LineRate::Oc3072.rads_granularity(48.0), 15);
        assert_eq!(LineRate::Oc3072.rads_granularity(102.4), 32);
        assert_eq!(LineRate::Oc768.rads_granularity(102.4), 8);
    }

    #[test]
    fn buffer_capacity_rule_of_thumb() {
        // 160 Gb/s * 0.2 s / 8 = 4 GB.
        let bytes = LineRate::Oc3072.buffer_capacity_bytes(0.2);
        assert!(close(bytes, 4e9));
    }

    #[test]
    fn required_bandwidth_is_twice_line_rate() {
        assert!(close(LineRate::Oc768.required_buffer_bandwidth_bps(), 80e9));
    }

    #[test]
    fn custom_rate() {
        let r = LineRate::CustomGbps(1.0);
        assert!(close(r.bits_per_second(), 1e9));
        assert!(close(r.slot_duration().as_ns(), 512.0));
        assert_eq!(r.to_string(), "custom (1 Gb/s)");
    }

    #[test]
    fn display_named_rates() {
        assert_eq!(LineRate::Oc3072.to_string(), "OC-3072 (160 Gb/s)");
        assert_eq!(LineRate::default(), LineRate::Oc3072);
    }

    #[test]
    fn from_str_round_trips_display_for_every_variant() {
        for rate in [
            LineRate::Oc192,
            LineRate::Oc768,
            LineRate::Oc3072,
            LineRate::CustomGbps(2.5),
            LineRate::CustomGbps(160.0),
            LineRate::CustomGbps(0.125),
        ] {
            let text = rate.to_string();
            assert_eq!(text.parse::<LineRate>().unwrap(), rate, "{text}");
        }
    }

    #[test]
    fn from_str_accepts_cli_short_forms() {
        assert_eq!("oc192".parse::<LineRate>().unwrap(), LineRate::Oc192);
        assert_eq!("OC-768".parse::<LineRate>().unwrap(), LineRate::Oc768);
        assert_eq!("oc3072".parse::<LineRate>().unwrap(), LineRate::Oc3072);
        assert_eq!(
            "2.5".parse::<LineRate>().unwrap(),
            LineRate::CustomGbps(2.5)
        );
        assert_eq!(
            "40gbps".parse::<LineRate>().unwrap(),
            LineRate::CustomGbps(40.0)
        );
        assert_eq!(
            " 10 Gb/s ".parse::<LineRate>().unwrap(),
            LineRate::CustomGbps(10.0)
        );
    }

    #[test]
    fn from_str_rejects_nonsense() {
        for bad in [
            "",
            "oc9999",
            "fast",
            "-3",
            "0",
            "nan",
            "custom ()",
            // Trailing garbage must not be silently ignored.
            "oc768xyz",
            "oc3072 Tb/s",
            "2.5ggg",
            "40gbpss",
        ] {
            assert!(bad.parse::<LineRate>().is_err(), "accepted {bad:?}");
        }
    }
}
