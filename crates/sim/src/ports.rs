//! Port buffers and port traffic, written once for the switch
//! ([`crate::fabric`]) and Clos ([`crate::clos`]) scenarios: [`Provisioning`]
//! turns a [`FabricDesign`] into port buffers, [`Traffic`] a
//! [`FabricWorkload`] into one generator per port. Each hands its result to
//! a visitor, so every design and workload runs monomorphised.

use crate::fabric::{FabricDesign, FabricWorkload};
use crate::scenario::{cfds_options, DesignKind};
use ::fabric::PortBuffer;
use pktbuf::{CfdsBuffer, DramOnlyBuffer, PacketBuffer, RadsBuffer};
use pktbuf_model::{CfdsConfig, ConfigError, ConfigOverrides, RadsConfig};
use traffic::{
    plane_seed, ArrivalGenerator, BurstyArrivals, HotspotArrivals, IncastArrivals, UniformArrivals,
};

/// A run over port buffers of any design ([`Provisioning::dispatch`]).
pub(crate) trait BuildPorts {
    type Output;

    /// Runs with `build(queues)` making each port buffer, in build order.
    fn build<B: PacketBuffer>(self, build: impl FnMut(usize) -> B) -> Self::Output;
}

/// A run over arrival generators of any workload ([`Traffic::drive`]).
pub(crate) trait DriveArrivals {
    type Output;

    /// Runs `slots` live-arrival slots, generator `g` feeding port `g`.
    fn drive<A: ArrivalGenerator>(self, arrivals: &mut [A], slots: u64) -> Self::Output;
}

/// The buffer parameters a switch or Clos scenario gives every port.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Provisioning {
    pub(crate) granularity: usize,
    pub(crate) rads_granularity: usize,
    pub(crate) num_banks: usize,
    pub(crate) overrides: ConfigOverrides,
}

impl Provisioning {
    /// Lookahead of a `queues`-VOQ CFDS port: `B` slots on top of the ECQF
    /// minimum `Q(b−1)+1`. RADS ports run at the bare minimum, their
    /// `B`-slot delay line covering the DRAM read. On CFDS ports the margin
    /// carries load the latency register does not: at b = 2, B = 8, M = 16,
    /// 2–16 ports, every workload and arbiter at 85–100 % load and seeds
    /// 1–2 (384 runs of 20 000 slots), the switches lose cells with it (293
    /// runs zero-loss, 1 970 misses, all bursty) and more without it (288,
    /// 3 051 misses). Dropping it also shortens every CFDS-port latency,
    /// which changes the `switch_islip` reports. A zero granularity, or a
    /// sum that overflows, saturates here and is rejected by the
    /// configuration check this feeds.
    fn cfds_lookahead(&self, queues: usize) -> usize {
        let ecqf_minimum = queues.saturating_mul(self.granularity.saturating_sub(1)) + 1;
        ecqf_minimum.saturating_add(self.rads_granularity)
    }

    /// RADS (and DRAM-only) ports take the ECQF minimum lookahead: the
    /// `B`-slot DRAM read is the stage behind it.
    pub(crate) fn rads_config(&self, queues: usize) -> RadsConfig {
        self.overrides.apply_rads(RadsConfig {
            num_queues: queues,
            granularity: self.rads_granularity,
            lookahead: None,
        })
    }

    /// CFDS ports default to `k = 2` physical queues per VOQ: with only `N`
    /// VOQs and `k = 1`, a long single-destination burst starves the
    /// renaming table of free names (its read and write chains must live in
    /// different groups), the fragmentation §6's oversubscription absorbs.
    pub(crate) fn try_cfds_config(&self, queues: usize) -> Result<CfdsConfig, ConfigError> {
        let cfg = self.overrides.apply_cfds(CfdsConfig {
            num_queues: queues,
            physical_queue_factor: 2,
            granularity: self.granularity,
            rads_granularity: self.rads_granularity,
            num_banks: self.num_banks,
            lookahead: Some(self.cfds_lookahead(queues)),
        });
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks every port `design` builds at each VOQ count in `queue_counts`.
    pub(crate) fn validate(
        &self,
        design: FabricDesign,
        queue_counts: &[usize],
    ) -> Result<(), ConfigError> {
        for &queues in queue_counts {
            // Ports 0 and 1 cover every design a choice uses.
            for kind in [0, 1].map(|port| design.design_for_port(port)) {
                match kind {
                    DesignKind::Cfds => self.try_cfds_config(queues).map(drop),
                    DesignKind::DramOnly | DesignKind::Rads => self.rads_config(queues).validate(),
                }?;
            }
        }
        Ok(())
    }

    /// The `queues`-VOQ port of design `kind`; panics where
    /// [`Provisioning::validate`] errs.
    pub(crate) fn build_port(&self, kind: DesignKind, queues: usize) -> PortBuffer {
        match kind {
            DesignKind::DramOnly => DramOnlyBuffer::new(self.rads_config(queues)).into(),
            DesignKind::Rads => RadsBuffer::new(self.rads_config(queues)).into(),
            DesignKind::Cfds => self.cfds_buffer(queues).into(),
        }
    }

    /// A CFDS port, honouring [`ConfigOverrides::dram_capacity_cells`].
    fn cfds_buffer(&self, queues: usize) -> CfdsBuffer {
        let config = self
            .try_cfds_config(queues)
            .expect("validated CFDS configuration");
        CfdsBuffer::with_options(config, cfds_options(&self.overrides))
    }

    /// Runs `ports` over the concrete buffer type of a `Fixed` design, or
    /// over [`PortBuffer`]s taking [`FabricDesign::design_for_port`] of
    /// their build order for `Mixed`; panics where
    /// [`Provisioning::validate`] errs.
    pub(crate) fn dispatch<P: BuildPorts>(&self, design: FabricDesign, ports: P) -> P::Output {
        match design {
            FabricDesign::Fixed(DesignKind::DramOnly) => {
                ports.build(|queues| DramOnlyBuffer::new(self.rads_config(queues)))
            }
            FabricDesign::Fixed(DesignKind::Rads) => {
                ports.build(|queues| RadsBuffer::new(self.rads_config(queues)))
            }
            FabricDesign::Fixed(DesignKind::Cfds) => ports.build(|queues| self.cfds_buffer(queues)),
            FabricDesign::Mixed => {
                let mut built = 0;
                ports.build(|queues| {
                    let kind = design.design_for_port(built);
                    built += 1;
                    self.build_port(kind, queues)
                })
            }
        }
    }
}

/// Mean on-burst length (cells) of the bursty workload.
const BURST_CELLS: f64 = 32.0;
/// Fraction of hotspot traffic aimed at the hot outputs.
const HOT_FRACTION: f64 = 0.75;

/// The external traffic of a switch or Clos: one generator per port, each
/// over every port as a destination. Port `g` seeds with
/// [`traffic::plane_seed`]`(seed, g / radix, g % radix)`, one plane per
/// ingress switch; a switch is a one-plane Clos (`radix = ports`), whose
/// port `p` gets `plane_seed(seed, 0, p)` = [`traffic::stream_seed`]`(seed, p)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Traffic {
    pub(crate) workload: FabricWorkload,
    pub(crate) ports: usize,
    pub(crate) radix: usize,
    /// Offered load per port, as a fraction of the line rate.
    pub(crate) load: f64,
    pub(crate) seed: u64,
    pub(crate) arrival_slots: u64,
}

impl Traffic {
    pub(crate) fn drive<D: DriveArrivals>(&self, driver: D) -> D::Output {
        let (ports, load) = (self.ports, self.load);
        match self.workload {
            FabricWorkload::Uniform => {
                self.run(driver, |seed| UniformArrivals::new(ports, load, seed))
            }
            FabricWorkload::Hotspot => self.run(driver, |seed| {
                HotspotArrivals::new(ports, load, ports.div_ceil(8), HOT_FRACTION, seed)
            }),
            FabricWorkload::Incast => {
                let fraction = IncastArrivals::admissible_fraction(ports, load);
                self.run(driver, |seed| {
                    IncastArrivals::new(ports, load, 0, fraction, seed)
                })
            }
            FabricWorkload::Bursty => {
                // Mean gap chosen so the long-run on-fraction equals the
                // offered load; per-port seeds give independent phases.
                let gap = BURST_CELLS * (1.0 - load) / load.max(f64::MIN_POSITIVE);
                self.run(driver, |seed| {
                    BurstyArrivals::new(ports, BURST_CELLS, gap, seed)
                })
            }
        }
    }

    fn run<D: DriveArrivals, A: ArrivalGenerator>(
        &self,
        driver: D,
        generator: impl Fn(u64) -> A,
    ) -> D::Output {
        let radix = self.radix as u64;
        let mut arrivals: Vec<A> = (0..self.ports as u64)
            .map(|g| generator(plane_seed(self.seed, g / radix, g % radix)))
            .collect();
        driver.drive(&mut arrivals, self.arrival_slots)
    }
}

#[cfg(test)]
mod tests {
    use crate::clos::ClosScenario;
    use crate::fabric::{FabricDesign, FabricScenario};
    use crate::scenario::DesignKind;
    use pktbuf_model::ConfigOverrides;

    #[test]
    fn cfds_ports_honour_the_dram_capacity_override() {
        // One 2-cell block per bank group: the tail SRAM backs up and drops.
        let tiny = ConfigOverrides {
            dram_capacity_cells: Some(8),
            ..ConfigOverrides::none()
        };
        let switch = FabricScenario::small();
        let capped = FabricScenario {
            overrides: tiny,
            ..switch
        };
        assert!(switch.run().zero_loss);
        let report = capped.run();
        assert!(report.lost_cells > 0, "{report:?}");
        let clos = ClosScenario {
            design: FabricDesign::Fixed(DesignKind::Cfds),
            radix: 3,
            ingress_switches: 3,
            middle_switches: 3,
            arrival_slots: 1_200,
            ..ClosScenario::small()
        };
        let capped = ClosScenario {
            overrides: tiny,
            ..clos.clone()
        };
        assert!(clos.run().zero_loss);
        let report = capped.run();
        assert!(report.lost_cells > 0, "{report:?}");
    }
}
