//! The execution-time pmf table: one pmf per (task type, node, P-state).
//!
//! The paper assumes "we are provided an execution-time probability mass
//! function for each task type executing on a single core of each node in
//! each P-state" (Sec. III-B). We synthesize the table from the CVB mean
//! matrix: the base-state pmf of (type, node) is an empirical gamma pmf
//! around `ETC[t][i]`, and each deeper P-state scales its support by the
//! node's execution-time multiplier (DVFS slows the clock; the paper's
//! clock-speed profile "scale\[s\] the execution time distributions").

use std::sync::{Mutex, PoisonError};

use ecds_cluster::{Cluster, PState, NUM_PSTATES};
use ecds_pmf::{empirical_pmf_into, Gamma, Impulse, Prob, ScaledPmf, SeedDerive, Stream, Time};

use crate::config::WorkloadConfig;
use crate::etc::EtcMatrix;
use crate::parallel::{default_threads, run_parallel};
use crate::task::TaskTypeId;

/// Cells one work item of the parallel build draws: enough to amortize a
/// claim, few enough that two workers share even a small table.
const CELLS_PER_ITEM: usize = 16;

/// Immutable per-scenario table of execution-time pmfs and cached
/// expectations.
///
/// Only the base-state pmf of each (type, *node template*) cell is stored
/// (see [`Cluster::with_templates`]: nodes stamped from the same template
/// have identical specs, hence identical execution-time distributions), all
/// of them back to back in one impulse arena. The deeper P-states are
/// derived on read: [`ExecTable::pmf`] returns a [`ScaledPmf`] that
/// multiplies each base value by the template's clock multiplier — the
/// same product a stored copy would hold, so every support value,
/// probability and cached expectation is bit-identical to storing all
/// five. The base state reads the base values unmultiplied. For clusters
/// built with [`Cluster::new`] every node is its own template.
///
/// The cells are drawn in parallel ([`run_parallel`]), each from its own
/// [`Stream::ExecPmf`] stream, so the table does not depend on the worker
/// count.
#[derive(Debug, Clone)]
pub struct ExecTable {
    num_types: usize,
    num_nodes: usize,
    num_templates: usize,
    /// Node → template, copied from the cluster at build time.
    node_template: Vec<u32>,
    /// Every cell's base-state impulses, cell after cell.
    impulses: Vec<Impulse>,
    /// Cell `[type * num_templates + template]` spans
    /// `impulses[offsets[cell]..offsets[cell + 1]]`.
    offsets: Vec<usize>,
    /// Per template: the execution-time multiplier of each P-state, the
    /// base state's pinned to exactly `1.0`.
    multipliers: Vec<[f64; NUM_PSTATES]>,
    /// Cached expectations per cell and P-state.
    eets: Vec<[Time; NUM_PSTATES]>,
    /// Cached per-type average execution time over all templates and
    /// P-states (the deadline formula's per-type term; identical to the
    /// per-node average for identity-template clusters).
    type_avgs: Vec<Time>,
    /// `t_avg`: grand average over types, templates, and P-states (the
    /// deadline load factor and the energy-budget time scale).
    t_avg: Time,
}

/// One work item of the parallel build: its cells' impulse slots, and
/// where each writes its impulse count and expectations.
struct CellItem<'a> {
    slots: &'a mut [Impulse],
    lens: &'a mut [usize],
    eets: &'a mut [[Time; NUM_PSTATES]],
}

impl ExecTable {
    /// Generates the full table for `cluster` from `cfg`, deterministically
    /// from the [`Stream::ExecPmf`] and [`Stream::EtcMatrix`] streams.
    pub fn generate(cfg: &WorkloadConfig, cluster: &Cluster, seeds: &SeedDerive) -> Self {
        cfg.validate();
        let etc = EtcMatrix::generate_cvb(
            cfg.num_types,
            cluster.num_templates(),
            cfg.mu_task,
            cfg.v_task,
            cfg.v_mach,
            seeds,
        );
        Self::from_etc(cfg, cluster, &etc, seeds)
    }

    /// Builds the table from an explicit mean matrix (tests, custom
    /// scenarios). The matrix carries one column per node *template* —
    /// which is one column per node for identity-template clusters.
    pub fn from_etc(
        cfg: &WorkloadConfig,
        cluster: &Cluster,
        etc: &EtcMatrix,
        seeds: &SeedDerive,
    ) -> Self {
        Self::from_etc_with_threads(cfg, cluster, etc, seeds, default_threads())
    }

    /// [`ExecTable::from_etc`] on `threads` workers; the table is the same
    /// for every count.
    pub fn from_etc_with_threads(
        cfg: &WorkloadConfig,
        cluster: &Cluster,
        etc: &EtcMatrix,
        seeds: &SeedDerive,
        threads: usize,
    ) -> Self {
        assert_eq!(
            etc.num_nodes(),
            cluster.num_templates(),
            "ETC matrix and cluster disagree on node count (one column per node template)"
        );
        let num_types = etc.num_types();
        let num_templates = cluster.num_templates();
        // Representative node per template: any node works because
        // `Cluster::with_templates` asserts spec equality within a
        // template. Under identity templates this is node `tpl` itself.
        let mut rep = vec![usize::MAX; num_templates];
        for n in (0..cluster.num_nodes()).rev() {
            rep[cluster.template_of(n)] = n;
        }
        let multipliers: Vec<[f64; NUM_PSTATES]> = rep
            .iter()
            .map(|&node| {
                std::array::from_fn(|s| {
                    let state = PState::from_index(s);
                    if state.is_base() {
                        1.0
                    } else {
                        cluster.node(node).exec_time_multiplier(state)
                    }
                })
            })
            .collect();

        // Every cell gets a slot of `cap` impulses; the workers fill their
        // items' slots in place, and the slots are compacted afterwards.
        // The mutexes only hand each item's slices to the one worker that
        // claims it: each is locked once, so never contended or poisoned.
        let cells = num_types * num_templates;
        let cap = cfg.pmf_sampling.max_impulses;
        let mut impulses = vec![Impulse::new(0.0, 0.0); cells * cap];
        let mut lens = vec![0; cells];
        let mut eets = vec![[0.0; NUM_PSTATES]; cells];
        let items: Vec<Mutex<CellItem<'_>>> = impulses
            .chunks_mut(CELLS_PER_ITEM * cap)
            .zip(lens.chunks_mut(CELLS_PER_ITEM))
            .zip(eets.chunks_mut(CELLS_PER_ITEM))
            .map(|((slots, lens), eets)| Mutex::new(CellItem { slots, lens, eets }))
            .collect();
        run_parallel(items.len(), threads, |item| {
            let mut guard = items[item].lock().unwrap_or_else(PoisonError::into_inner);
            let CellItem { slots, lens, eets } = &mut *guard;
            let mut samples = Vec::with_capacity(cfg.pmf_sampling.samples);
            for (i, slot) in slots.chunks_mut(cap).enumerate() {
                let cell = item * CELLS_PER_ITEM + i;
                let (t, tpl) = (cell / num_templates, cell % num_templates);
                let gamma = Gamma::from_mean_cv(etc.mean(TaskTypeId(t), tpl), cfg.pmf_cv);
                let mut rng = seeds.rng(Stream::ExecPmf, t as u64, tpl as u64);
                let len = empirical_pmf_into(
                    &mut rng,
                    cfg.pmf_sampling,
                    |r| gamma.sample(r),
                    &mut samples,
                    slot,
                );
                lens[i] = len;
                eets[i] = std::array::from_fn(|s| {
                    ScaledPmf::new(&slot[..len], multipliers[tpl][s]).expectation()
                });
            }
        });
        drop(items);
        let mut offsets = Vec::with_capacity(cells + 1);
        offsets.push(0);
        for (cell, &len) in lens.iter().enumerate() {
            let start = offsets[cell];
            impulses.copy_within(cell * cap..cell * cap + len, start);
            offsets.push(start + len);
        }
        impulses.truncate(offsets[cells]);
        impulses.shrink_to_fit();
        let type_avgs: Vec<Time> = (0..num_types)
            .map(|t| {
                let sum: f64 = (0..num_templates)
                    .map(|tpl| eets[t * num_templates + tpl].iter().sum::<f64>())
                    .sum();
                sum / (num_templates * NUM_PSTATES) as f64
            })
            .collect();
        let t_avg = type_avgs.iter().sum::<f64>() / num_types as f64;
        Self {
            num_types,
            num_nodes: cluster.num_nodes(),
            num_templates,
            node_template: cluster.templates().to_vec(),
            impulses,
            offsets,
            multipliers,
            eets,
            type_avgs,
            t_avg,
        }
    }

    /// Number of task types.
    #[inline]
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of node templates backing the pmf storage.
    #[inline]
    pub fn num_templates(&self) -> usize {
        self.num_templates
    }

    /// Template id of `node` — the pmf-storage key; nodes sharing it have
    /// bit-identical tables.
    #[inline]
    pub fn template_of(&self, node: usize) -> usize {
        self.node_template[node] as usize
    }

    /// The storage cell of (`task_type`, `node`'s template).
    #[inline]
    fn cell(&self, task_type: TaskTypeId, node: usize) -> usize {
        task_type.0 * self.num_templates + self.template_of(node)
    }

    /// Execution-time pmf of `task_type` on one core of `node` in `state`:
    /// the stored base-state pmf, its values scaled by the P-state's
    /// multiplier on read.
    #[inline]
    pub fn pmf(&self, task_type: TaskTypeId, node: usize, state: PState) -> ScaledPmf<'_> {
        let cell = self.cell(task_type, node);
        ScaledPmf::new(
            &self.impulses[self.offsets[cell]..self.offsets[cell + 1]],
            self.multipliers[self.template_of(node)][state.index()],
        )
    }

    /// Expected execution time — the heuristics' `EET(i, j, k, π, z)`
    /// (cores within a node are identical, so only the node matters).
    #[inline]
    pub fn eet(&self, task_type: TaskTypeId, node: usize, state: PState) -> Time {
        self.eets[self.cell(task_type, node)][state.index()]
    }

    /// Per-type average execution time over all nodes and P-states (the
    /// type-specific term of the deadline formula, Sec. VI).
    #[inline]
    pub fn type_average(&self, task_type: TaskTypeId) -> Time {
        self.type_avgs[task_type.0]
    }

    /// `t_avg`: the average execution time of all task types across all
    /// machines and P-states (≈ 1353 in the paper's configuration).
    #[inline]
    pub fn t_avg(&self) -> Time {
        self.t_avg
    }

    /// The *actual* execution time realized for a task with pre-drawn
    /// `quantile`, if executed on `node` in `state`.
    #[inline]
    pub fn actual_time(
        &self,
        task_type: TaskTypeId,
        node: usize,
        state: PState,
        quantile: Prob,
    ) -> Time {
        self.pmf(task_type, node, state)
            .quantile(quantile)
            .expect("trace quantiles are in [0, 1)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecds_cluster::{generate_cluster, ClusterGenConfig};

    fn table() -> (ExecTable, Cluster) {
        let seeds = SeedDerive::new(77);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        (ExecTable::generate(&cfg, &cluster, &seeds), cluster)
    }

    #[test]
    fn deeper_pstates_run_longer() {
        let (t, _) = table();
        for ty in 0..t.num_types() {
            for n in 0..t.num_nodes() {
                let mut last = 0.0;
                for s in PState::ALL {
                    let eet = t.eet(TaskTypeId(ty), n, s);
                    assert!(eet > last, "EET must increase with P-state depth");
                    last = eet;
                }
            }
        }
    }

    #[test]
    fn pstate_scaling_matches_ladder() {
        let (t, cluster) = table();
        let ty = TaskTypeId(0);
        for n in 0..t.num_nodes() {
            let mult = cluster.node(n).exec_time_multiplier(PState::P4);
            let base = t.eet(ty, n, PState::P0);
            let deep = t.eet(ty, n, PState::P4);
            assert!((deep / base - mult).abs() < 1e-9);
        }
    }

    #[test]
    fn base_eet_tracks_cvb_scale() {
        let (t, _) = table();
        // Average base-state EET should be near μ_task = 750 (within the CVB
        // sampling noise of a small matrix).
        let mut sum = 0.0;
        let mut count = 0;
        for ty in 0..t.num_types() {
            for n in 0..t.num_nodes() {
                sum += t.eet(TaskTypeId(ty), n, PState::P0);
                count += 1;
            }
        }
        let avg = sum / count as f64;
        assert!((avg - 750.0).abs() < 200.0, "avg base EET {avg}");
    }

    #[test]
    fn t_avg_is_grand_mean_of_eets() {
        let (t, _) = table();
        let mut sum = 0.0;
        let mut count = 0;
        for ty in 0..t.num_types() {
            for n in 0..t.num_nodes() {
                for s in PState::ALL {
                    sum += t.eet(TaskTypeId(ty), n, s);
                    count += 1;
                }
            }
        }
        assert!((t.t_avg() - sum / count as f64).abs() < 1e-9);
    }

    #[test]
    fn type_average_is_per_type_mean() {
        let (t, _) = table();
        let ty = TaskTypeId(3);
        let mut sum = 0.0;
        for n in 0..t.num_nodes() {
            for s in PState::ALL {
                sum += t.eet(ty, n, s);
            }
        }
        let expected = sum / (t.num_nodes() * NUM_PSTATES) as f64;
        assert!((t.type_average(ty) - expected).abs() < 1e-9);
    }

    #[test]
    fn actual_time_is_monotone_in_quantile() {
        let (t, _) = table();
        let ty = TaskTypeId(1);
        let a = t.actual_time(ty, 0, PState::P0, 0.1);
        let b = t.actual_time(ty, 0, PState::P0, 0.9);
        assert!(a <= b);
        assert!(a > 0.0);
    }

    #[test]
    fn actual_time_scales_with_pstate() {
        let (t, cluster) = table();
        let ty = TaskTypeId(1);
        let q = 0.5;
        let base = t.actual_time(ty, 0, PState::P0, q);
        let deep = t.actual_time(ty, 0, PState::P4, q);
        let mult = cluster.node(0).exec_time_multiplier(PState::P4);
        assert!((deep / base - mult).abs() < 1e-9);
    }

    #[test]
    fn table_is_deterministic() {
        let seeds = SeedDerive::new(5);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let a = ExecTable::generate(&cfg, &cluster, &seeds);
        let b = ExecTable::generate(&cfg, &cluster, &seeds);
        assert_eq!(a.t_avg(), b.t_avg());
        assert_eq!(
            a.pmf(TaskTypeId(0), 0, PState::P2).to_pmf(),
            b.pmf(TaskTypeId(0), 0, PState::P2).to_pmf()
        );
    }

    #[test]
    #[should_panic(expected = "disagree on node count")]
    fn mismatched_cluster_rejected() {
        let seeds = SeedDerive::new(5);
        let cluster = generate_cluster(&ClusterGenConfig::small_for_tests(), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let etc = EtcMatrix::from_means(1, 1, vec![100.0]);
        let _ = ExecTable::from_etc(&cfg, &cluster, &etc, &seeds);
    }

    #[test]
    fn templated_nodes_share_pmf_storage() {
        let seeds = SeedDerive::new(11);
        let cluster = generate_cluster(&ClusterGenConfig::scaled(64, 4), &seeds);
        let cfg = WorkloadConfig::small_for_tests();
        let t = ExecTable::generate(&cfg, &cluster, &seeds);
        assert_eq!(t.num_templates(), 4);
        assert_eq!(t.num_nodes(), 64);
        let ty = TaskTypeId(2);
        for n in 0..cluster.num_nodes() {
            let tpl = t.template_of(n);
            assert_eq!(tpl, cluster.template_of(n));
            // Same template ⇒ the very same stored cell, not a copy.
            assert_eq!(t.cell(ty, n), t.cell(ty, tpl));
            assert_eq!(
                t.eet(ty, n, PState::P3).to_bits(),
                t.eet(ty, tpl, PState::P3).to_bits()
            );
        }
    }

    #[test]
    fn identity_cluster_keeps_one_template_per_node() {
        let (t, cluster) = table();
        assert_eq!(t.num_templates(), cluster.num_nodes());
        for n in 0..cluster.num_nodes() {
            assert_eq!(t.template_of(n), n);
        }
    }
}
