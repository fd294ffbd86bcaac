//! The execution-time table pinned bit for bit. Every (type, node,
//! P-state) pmf — each impulse's value and probability bits — and every
//! cached `eet`, `type_average` and `t_avg` is hashed into one digest per
//! scenario, pinned to the digest of the table that stored all five
//! P-states as separately scaled pmfs. The table now derives the deeper
//! P-states on read and draws its cells in parallel; both must leave every
//! bit where it was, for any worker count.

use ecds::prelude::*;
use ecds_cluster::{generate_cluster, ClusterGenConfig};
use ecds_pmf::SeedDerive;
use ecds_workload::{EtcMatrix, ExecTable, TaskTypeId, WorkloadConfig};

/// `Scenario::paper(1353)`'s table: 100 types × 8 nodes × 5 P-states.
const PAPER_DIGEST: u64 = 0xbba0_9171_05f8_b694;
/// `Scenario::small_for_tests(5)`'s table.
const SMALL_DIGEST: u64 = 0x9ddc_ebb1_b94c_5f08;

/// FNV-1a 64 over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(table: &ExecTable) -> u64 {
    let mut h = Digest::new();
    for t in 0..table.num_types() {
        let ty = TaskTypeId(t);
        for node in 0..table.num_nodes() {
            for state in PState::ALL {
                let pmf = table.pmf(ty, node, state);
                h.word(pmf.len() as u64);
                for imp in pmf.iter() {
                    h.word(imp.value.to_bits());
                    h.word(imp.prob.to_bits());
                }
                h.word(table.eet(ty, node, state).to_bits());
            }
        }
        h.word(table.type_average(ty).to_bits());
    }
    h.word(table.t_avg().to_bits());
    h.0
}

#[test]
fn paper_table_matches_its_pinned_digest() {
    assert_eq!(digest(Scenario::paper(1353).table()), PAPER_DIGEST);
}

#[test]
fn small_table_matches_its_pinned_digest() {
    assert_eq!(digest(Scenario::small_for_tests(5).table()), SMALL_DIGEST);
}

/// The table `ExecTable::generate` builds, drawn on `threads` workers.
fn table_on(
    seed: u64,
    cluster_cfg: &ClusterGenConfig,
    cfg: &WorkloadConfig,
    threads: usize,
) -> ExecTable {
    let seeds = SeedDerive::new(seed);
    let cluster = generate_cluster(cluster_cfg, &seeds);
    let etc = EtcMatrix::generate_cvb(
        cfg.num_types,
        cluster.num_templates(),
        cfg.mu_task,
        cfg.v_task,
        cfg.v_mach,
        &seeds,
    );
    ExecTable::from_etc_with_threads(cfg, &cluster, &etc, &seeds, threads)
}

#[test]
fn table_is_independent_of_the_worker_count() {
    let scenarios = [
        (
            1353,
            ClusterGenConfig::paper(),
            WorkloadConfig::paper(),
            PAPER_DIGEST,
        ),
        (
            5,
            ClusterGenConfig::small_for_tests(),
            WorkloadConfig::small_for_tests(),
            SMALL_DIGEST,
        ),
    ];
    for (seed, cluster_cfg, cfg, pinned) in &scenarios {
        for threads in [1, 2, 3, 8] {
            let table = table_on(*seed, cluster_cfg, cfg, threads);
            assert_eq!(digest(&table), *pinned, "seed {seed} on {threads} workers");
        }
    }
}
