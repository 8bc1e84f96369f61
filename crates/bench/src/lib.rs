//! # satmapit-bench
//!
//! Experiment harness for the SAT-MapIt reproduction: runs the paper's
//! evaluation grid (11 benchmarks × mesh sizes 2×2…5×5 × three mappers)
//! and renders Figure 6, Tables I–IV and the §V summary statistics.
//!
//! The `repro` binary drives it:
//!
//! ```sh
//! cargo run --release -p satmapit-bench --bin repro -- all --timeout 60
//! ```
//!
//! Criterion benches in `benches/` time the Figure 6 and table cells;
//! performance questions beyond the paper's tables go to `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use satmapit_baselines::{BaselineConfig, BaselineFailure, PathSeekerMapper, RampMapper};
use satmapit_cgra::Cgra;
use satmapit_core::{MapFailure, Mapper, MapperConfig};
use satmapit_kernels::Kernel;
use satmapit_obs as obs;
use serde::{Deserialize, Serialize};
use std::time::Duration;

pub mod report;

/// Which mapper produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapperKind {
    /// The SAT-based mapper (this paper).
    SatMapIt,
    /// RAMP-like heuristic baseline.
    Ramp,
    /// PathSeeker-like heuristic baseline.
    PathSeeker,
}

impl MapperKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            MapperKind::SatMapIt => "SAT-MapIt",
            MapperKind::Ramp => "RAMP-like",
            MapperKind::PathSeeker => "PathSeeker-like",
        }
    }
}

/// Outcome of one (kernel, size, mapper) cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CellResult {
    /// Mapped at the given II.
    Mapped {
        /// Achieved initiation interval.
        ii: u32,
        /// Routing nodes the mapper inserted (baselines only).
        routes: u32,
    },
    /// Wall-clock budget expired — the paper's red ✕.
    Timeout,
    /// II climbed past the cap — the paper's black ✕.
    IiCap,
}

impl CellResult {
    /// The achieved II, if mapped.
    pub fn ii(self) -> Option<u32> {
        match self {
            CellResult::Mapped { ii, .. } => Some(ii),
            _ => None,
        }
    }
}

/// One measured grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// Benchmark name.
    pub kernel: String,
    /// Mesh edge length (2..=5 in the paper).
    pub size: u16,
    /// Which mapper.
    pub mapper: MapperKind,
    /// Outcome.
    pub result: CellResult,
    /// Wall-clock seconds spent mapping.
    pub seconds: f64,
}

/// Grid configuration.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Mesh sizes to sweep (paper: 2..=5).
    pub sizes: Vec<u16>,
    /// Per-cell wall-clock budget (paper: 4000 s; scaled down by default).
    pub timeout: Duration,
    /// II cap (paper: 50).
    pub max_ii: u32,
    /// Benchmark subset (defaults to all 11).
    pub kernels: Vec<String>,
    /// Baseline random seed.
    pub seed: u64,
}

impl Default for GridConfig {
    fn default() -> GridConfig {
        GridConfig {
            sizes: vec![2, 3, 4, 5],
            timeout: Duration::from_secs(60),
            max_ii: 50,
            kernels: satmapit_kernels::NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            seed: 0xBA5E11E5,
        }
    }
}

/// Runs one cell.
///
/// # Panics
///
/// Panics if the kernel is malformed (cannot happen for the built-in
/// suite).
pub fn run_cell(kernel: &Kernel, cgra: &Cgra, mapper: MapperKind, config: &GridConfig) -> Cell {
    let size = cgra.rows();
    let (result, seconds) = match mapper {
        MapperKind::SatMapIt => {
            let mc = MapperConfig {
                max_ii: config.max_ii,
                timeout: Some(config.timeout),
                ..MapperConfig::default()
            };
            let outcome = Mapper::new(&kernel.dfg, cgra).with_config(mc).run();
            let result = match outcome.result {
                Ok(m) => CellResult::Mapped {
                    ii: m.ii(),
                    routes: 0,
                },
                Err(MapFailure::Timeout { .. }) => CellResult::Timeout,
                Err(MapFailure::IiCapReached { .. }) => CellResult::IiCap,
                Err(e) => panic!("unexpected failure for {}: {e}", kernel.name()),
            };
            (result, outcome.elapsed.as_secs_f64())
        }
        MapperKind::Ramp | MapperKind::PathSeeker => {
            let bc = BaselineConfig {
                max_ii: config.max_ii,
                timeout: Some(config.timeout),
                seed: config.seed,
                ..BaselineConfig::default()
            };
            let outcome = if mapper == MapperKind::Ramp {
                RampMapper::new(&kernel.dfg, cgra).with_config(bc).run()
            } else {
                PathSeekerMapper::new(&kernel.dfg, cgra)
                    .with_config(bc)
                    .run()
            };
            let result = match outcome.result {
                Ok(m) => CellResult::Mapped {
                    ii: m.ii(),
                    routes: m.routes,
                },
                Err(BaselineFailure::Timeout { .. }) => CellResult::Timeout,
                Err(BaselineFailure::IiCapReached { .. }) => CellResult::IiCap,
                Err(e) => panic!("unexpected failure for {}: {e}", kernel.name()),
            };
            (result, outcome.elapsed.as_secs_f64())
        }
    };
    Cell {
        kernel: kernel.name().to_string(),
        size,
        mapper,
        result,
        seconds,
    }
}

/// Runs the whole grid (all kernels × sizes × three mappers), printing
/// progress to stderr.
pub fn run_grid(config: &GridConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for name in &config.kernels {
        let kernel =
            satmapit_kernels::by_name(name).unwrap_or_else(|| panic!("unknown kernel `{name}`"));
        for &size in &config.sizes {
            let cgra = Cgra::square(size);
            for mapper in [
                MapperKind::SatMapIt,
                MapperKind::Ramp,
                MapperKind::PathSeeker,
            ] {
                obs::info!(
                    "satmapit::bench",
                    "[grid] {name} {size}x{size} {}...",
                    mapper.name()
                );
                cells.push(run_cell(&kernel, &cgra, mapper, config));
            }
        }
    }
    cells
}

/// The best heuristic result per (kernel, size), mirroring the paper's
/// "best of RAMP/PathSeeker" presentation in Fig. 6. Mapped cells beat
/// failures; ties break on time.
pub fn best_baseline(cells: &[Cell], kernel: &str, size: u16) -> Option<Cell> {
    cells
        .iter()
        .filter(|c| {
            c.kernel == kernel
                && c.size == size
                && matches!(c.mapper, MapperKind::Ramp | MapperKind::PathSeeker)
        })
        .min_by(|a, b| {
            let key = |c: &Cell| c.result.ii().unwrap_or(u32::MAX);
            key(a).cmp(&key(b)).then(
                a.seconds
                    .partial_cmp(&b.seconds)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        })
        .cloned()
}

/// Finds the cell for a given coordinate.
pub fn cell_of(cells: &[Cell], kernel: &str, size: u16, mapper: MapperKind) -> Option<Cell> {
    cells
        .iter()
        .find(|c| c.kernel == kernel && c.size == size && c.mapper == mapper)
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> GridConfig {
        GridConfig {
            sizes: vec![3],
            timeout: Duration::from_secs(30),
            max_ii: 20,
            kernels: vec!["srand".into(), "basicmath".into()],
            seed: 1,
        }
    }

    #[test]
    fn grid_runs_and_sat_maps() {
        let config = quick_config();
        let cells = run_grid(&config);
        assert_eq!(cells.len(), 2 * 3);
        for c in &cells {
            if c.mapper == MapperKind::SatMapIt {
                assert!(c.result.ii().is_some(), "{} should map", c.kernel);
            }
        }
        let best = best_baseline(&cells, "srand", 3);
        assert!(best.is_some());
    }

    #[test]
    fn cell_lookup_roundtrips() {
        let config = quick_config();
        let cells = run_grid(&config);
        let c = cell_of(&cells, "basicmath", 3, MapperKind::SatMapIt).unwrap();
        assert_eq!(c.kernel, "basicmath");
        assert_eq!(c.size, 3);
    }
}
