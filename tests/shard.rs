//! Shard oracle: sharded deployments are invisible to queries.
//!
//! A [`ShardedStore`] partitions one logical XMark document across N
//! entity shards plus a global head shard and presents them as one
//! union view: fused root and section nodes, dense global ids in
//! document order, and axis cursors that concatenate the shard runs in
//! shard (= document) order. Queries run on that view through the same
//! executor as on any store. This suite is the correctness contract for
//! it: **every** benchmark query must produce byte-identical canonical
//! output on the sharded union and on the monolithic store it
//! partitions — for 2, 4 and 8 shards, on an
//! in-memory backend (A) and on the disk-resident backend (H, one page
//! file per shard, opened cold).

use xmark::prelude::*;

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];
const FACTOR: f64 = 0.001;

/// Monolithic reference outputs for every query, computed once.
fn reference_outputs(session: &Session) -> Vec<String> {
    let mono = session.load(SystemId::A);
    (1..=20)
        .map(|q| canonical_output(mono.store.as_ref(), q))
        .collect()
}

fn assert_sharded_matches(store: &dyn XmlStore, reference: &[String], label: &str) {
    for (i, want) in reference.iter().enumerate() {
        let q = i + 1;
        let got = canonical_output(store, q);
        assert_eq!(
            &got, want,
            "Q{q} diverged on {label}: the union view produced a \
             different result than the monolithic run"
        );
    }
}

#[test]
fn all_queries_agree_sharded_vs_monolithic_in_memory() {
    let session = Benchmark::at_factor(FACTOR).generate();
    let reference = reference_outputs(&session);
    for shards in SHARD_COUNTS {
        let sharded = session.load_sharded(SystemId::A, shards);
        assert_eq!(
            sharded.store.shard_part_count(),
            shards + 1,
            "global head + entity shards"
        );
        assert_sharded_matches(
            sharded.store.as_ref(),
            &reference,
            &format!("System A x{shards} shards"),
        );
    }
}

#[test]
fn all_queries_agree_sharded_vs_monolithic_paged_cold() {
    let session = Benchmark::at_factor(FACTOR).generate();
    let reference = reference_outputs(&session);
    for shards in SHARD_COUNTS {
        // Each shard bulkloads into its own page file and re-opens cold:
        // the union starts with every per-shard buffer pool empty.
        let sharded = session.load_sharded_paged(shards, Some(32));
        assert_eq!(sharded.system, SystemId::H);
        assert_sharded_matches(
            sharded.store.as_ref(),
            &reference,
            &format!("System H x{shards} cold shards"),
        );
        // The shards really are paged: pool counters saw the traffic.
        let stats = sharded
            .store
            .paged_stats()
            .expect("sharded H union merges shard pool stats");
        assert!(stats.pages_read > 0, "cold shards must read pages");
    }
}
