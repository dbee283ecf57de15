//! The five workloads' inputs, made from the seed. The program under test
//! receives only what is generated here; the seed itself never reaches it.

use crate::stats::{Reference, Rng};
use clustersim::HeteroProfile;
use driver::{ModelSpec, ScenarioSpec, SizeClass, SweepGrid};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    CompileCold,
    InterpNp8,
    RanksNp256,
    ResweepWarm,
    ServiceQuick,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::CompileCold,
        WorkloadId::InterpNp8,
        WorkloadId::RanksNp256,
        WorkloadId::ResweepWarm,
        WorkloadId::ServiceQuick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::CompileCold => "compile_cold",
            WorkloadId::InterpNp8 => "interp_np8",
            WorkloadId::RanksNp256 => "ranks_np256",
            WorkloadId::ResweepWarm => "resweep_warm",
            WorkloadId::ServiceQuick => "service_quick",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Timed passes of an untraced run (`service_quick`: jobs of each
    /// client), at least five. The count follows from `--seconds` alone, so
    /// that two commits do the same work whatever their speed. The rates are
    /// sized on the two-core host this was written on, for a whole run (the
    /// set-ups, the passes and the reference kernel between them, the
    /// service phases) of about `--seconds` in a noisy hour and a fifth less
    /// in a quiet one.
    pub fn passes(self, seconds: f64) -> usize {
        let per_second = match self {
            WorkloadId::CompileCold => 0.5,
            WorkloadId::InterpNp8 => 0.4,
            WorkloadId::RanksNp256 => 0.3,
            WorkloadId::ResweepWarm => 20.0,
            WorkloadId::ServiceQuick => 45.0,
        };
        ((seconds * per_second).round() as usize).max(5)
    }

    /// The reference kernel that takes the host's state out of this
    /// workload's times; none for `service_quick`, which waits on the server's
    /// sleeps, and no neighbour slows a sleep. `interp_np8` keeps both rank
    /// workers computing for the whole pass and is followed by the kernel on
    /// two threads; the others run on one thread, or, as `ranks_np256`, hand
    /// tiny steps back and forth under locks so that one core works at a time
    /// (README, "Reading the times", has the spreads either way).
    pub fn reference(self) -> Option<Reference> {
        match self {
            WorkloadId::ServiceQuick => None,
            WorkloadId::InterpNp8 => Some(Reference { threads: 2 }),
            _ => Some(Reference { threads: 1 }),
        }
    }

    /// Set-ups of an untraced run: this process's own, and the others in
    /// child processes that stop where the first timed pass would begin, so
    /// that each is as cold as a user's. `service_quick`'s takes two or three
    /// 5 ms ticks of the server's accept loop, by a race, and costs next to
    /// nothing: it is repeated until the median stops flipping between them.
    pub fn setups(self) -> usize {
        match self {
            WorkloadId::ServiceQuick => 15,
            _ => 3,
        }
    }
}

pub struct Inputs {
    /// The workload's scenario set as a grid, axes in seeded order.
    pub grid: SweepGrid,
    /// `grid.expand()`, shuffled by the seed.
    pub specs: Vec<ScenarioSpec>,
    /// The part of `grid` the traced run also simulates layer by layer.
    pub sim_grid: SweepGrid,
}

/// Ten models: the three presets, three `mpich-beta` factors and two
/// `congested` (links, load) pairs drawn without repetition, and the two
/// heterogeneous profiles. `smoke` keeps the presets only.
fn models(rng: &mut Rng, smoke: bool) -> Vec<ModelSpec> {
    let mut out = ModelSpec::presets();
    if smoke {
        return out;
    }
    let mut betas = [0.25, 0.5, 2.0, 4.0, 8.0];
    rng.shuffle(&mut betas);
    out.extend(betas[..3].iter().map(|f| ModelSpec::MpichBeta(*f)));
    let mut pairs: Vec<(u32, f64)> = [1u32, 2, 4]
        .into_iter()
        .flat_map(|links| [1.0, 2.0, 3.0].map(|load| (links, load)))
        .collect();
    rng.shuffle(&mut pairs);
    out.extend(
        pairs[..2]
            .iter()
            .map(|&(links, load)| ModelSpec::Congested { links, load }),
    );
    out.push(ModelSpec::Hetero(HeteroProfile::HalfSlow));
    out.push(ModelSpec::Hetero(HeteroProfile::Straggler));
    out
}

fn registry_names() -> Vec<String> {
    workloads::registry()
        .iter()
        .map(|e| e.name.to_string())
        .collect()
}

/// Build a workload's inputs. `smoke` swaps in stand-ins of at most eight
/// ranks at the small size, for the package's own tests. `root` is the
/// repository checkout (`service_quick` reads `scenarios/quick.toml`).
pub fn inputs(id: WorkloadId, seed: u64, smoke: bool, root: &Path) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed);
    let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let (mut grid, sim_grid) = match id {
        WorkloadId::CompileCold => {
            let (size, nps) = if smoke {
                (SizeClass::Small, vec![2, 4])
            } else {
                (SizeClass::Standard, vec![8, 16, 32])
            };
            let grid = SweepGrid::new()
                .workloads(registry_names())
                .size(size)
                .nps(nps.clone())
                .models(models(&mut rng, smoke));
            // Simulating all 240 standard-size scenarios would take minutes;
            // one column of the smallest rank count stands for them.
            let sim = grid.clone().nps([nps[0]]).models([ModelSpec::MpichGm]);
            (grid, Some(sim))
        }
        WorkloadId::InterpNp8 => {
            let (size, np) = if smoke {
                (SizeClass::Small, 4)
            } else {
                (SizeClass::Standard, 8)
            };
            let grid = SweepGrid::new()
                .workloads(names(&["direct2d", "fft", "adi"]))
                .size(size)
                .nps([np])
                .models([ModelSpec::Mpich, ModelSpec::MpichGm]);
            (grid, None)
        }
        WorkloadId::RanksNp256 => {
            let grid = SweepGrid::new()
                .workloads(names(&["direct2d", "fft"]))
                .size(SizeClass::Small)
                .nps([if smoke { 8 } else { 256 }])
                .models([ModelSpec::MpichGm]);
            (grid, None)
        }
        WorkloadId::ResweepWarm => {
            let grid = SweepGrid::new()
                .workloads(registry_names())
                .size(SizeClass::Small)
                .nps(if smoke { vec![2] } else { vec![2, 4, 8] })
                .models(models(&mut rng, smoke))
                .tile_sizes(if smoke {
                    vec![None]
                } else {
                    vec![None, Some(4)]
                });
            (grid, None)
        }
        WorkloadId::ServiceQuick => {
            let path = root.join("scenarios/quick.toml");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            (driver::grid_from_toml(&text)?, None)
        }
    };
    // The committed quick grid is served as the file says; the others get
    // their axis order from the seed.
    if id != WorkloadId::ServiceQuick {
        rng.shuffle(&mut grid.workloads);
        rng.shuffle(&mut grid.models);
    }
    let sim_grid = match sim_grid {
        Some(sim) => sim.workloads(grid.workloads.clone()),
        None => grid.clone(),
    };
    let mut specs = grid.expand();
    if id != WorkloadId::ServiceQuick {
        rng.shuffle(&mut specs);
    }
    Ok(Inputs {
        grid,
        specs,
        sim_grid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_counts_and_seeding() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let count = |id| inputs(id, 1, false, &root).unwrap().specs.len();
        assert_eq!(count(WorkloadId::CompileCold), 240);
        assert_eq!(count(WorkloadId::InterpNp8), 6);
        assert_eq!(count(WorkloadId::RanksNp256), 2);
        assert_eq!(count(WorkloadId::ResweepWarm), 480);
        assert_eq!(count(WorkloadId::ServiceQuick), 4);

        let keys = |seed| -> Vec<String> {
            let inp = inputs(WorkloadId::CompileCold, seed, false, &root).unwrap();
            inp.specs.iter().map(ScenarioSpec::key).collect()
        };
        assert_eq!(keys(1), keys(1), "the same seed gives the same inputs");
        assert_ne!(keys(1), keys(2));
        let inp = inputs(WorkloadId::CompileCold, 3, false, &root).unwrap();
        assert_eq!(inp.sim_grid.expand().len(), 8);
    }
}
