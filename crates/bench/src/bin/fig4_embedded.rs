//! Figure 4 reproduction: all twenty queries on the embedded query
//! processor (System G) at 100 kB (factor 0.001) and 1 MB (factor 0.01).
//!
//! The paper could not run System G at factor 1.0 at all ("the embedded
//! System G failed to do so") and reports both series on a log axis, all
//! between ~2.5 s and ~1000 s. Our shape target: G is orders of magnitude
//! slower *per byte* than the mass-storage systems and its two series
//! differ by roughly the document-size ratio on data-bound queries.
//!
//! A second section runs the same twenty queries on the disk-resident
//! backend H twice — once with a warm buffer pool, once freshly
//! cold-opened from its page file (no XML re-parse) — and reports the
//! buffer-pool counters (pages read/written, evictions, hit rate) for
//! each pass. `--smoke` shrinks the documents and asserts warm/cold
//! byte-identity so CI can run this binary in seconds.
//!
//! ```text
//! cargo run --release -p xmark-bench --bin fig4_embedded \
//!     [--factor 0.01] [--pool-pages 64] [--smoke]
//! ```

use xmark::prelude::*;
use xmark_bench::{Finding, TextTable};

fn main() {
    let smoke = xmark_bench::has_flag("--smoke");
    let large_factor = xmark_bench::factor_from_args(if smoke { 0.002 } else { 0.01 });
    let small_factor = large_factor / 10.0;

    let small = Benchmark::at_factor(small_factor)
        .systems(&[SystemId::G])
        .queries(1..=20)
        .run();
    let large = Benchmark::at_factor(large_factor)
        .systems(&[SystemId::G])
        .queries(1..=20)
        .run();
    println!(
        "== Fig. 4: embedded System G at {} (factor {small_factor}) and {} (factor {large_factor}) ==\n",
        xmark_bench::human_bytes(small.document.xml.len()),
        xmark_bench::human_bytes(large.document.xml.len()),
    );

    let mut table = TextTable::new(&[
        "Query",
        "small doc (ms)",
        "large doc (ms)",
        "ratio",
        "items (large)",
    ]);
    let mut series_small = Vec::new();
    let mut series_large = Vec::new();
    for q in 1..=20 {
        let ms_ = small.measurement(SystemId::G, q).expect("measured");
        let ml = large.measurement(SystemId::G, q).expect("measured");
        let ratio = ml.total().as_secs_f64() / ms_.total().as_secs_f64().max(1e-9);
        table.row(vec![
            format!("Q{q}"),
            xmark_bench::ms(ms_.total()),
            xmark_bench::ms(ml.total()),
            format!("{ratio:.1}x"),
            ml.result_items.to_string(),
        ]);
        series_small.push(ms_.total());
        series_large.push(ml.total());
    }
    println!("{}", table.render());

    // ASCII rendition of the figure (log-ish scale like the paper's).
    println!("figure (one bar per query, log scale; #: large doc, .: small doc):");
    let max = series_large
        .iter()
        .map(|d| d.as_secs_f64())
        .fold(f64::MIN, f64::max);
    for (i, (s, l)) in series_small.iter().zip(&series_large).enumerate() {
        let bar = |d: &std::time::Duration| -> usize {
            let v = d.as_secs_f64().max(1e-6);
            let frac = (v.ln() - 1e-6f64.ln()) / (max.ln() - 1e-6f64.ln());
            (frac * 50.0) as usize
        };
        println!("  Q{:<2} {}", i + 1, "#".repeat(bar(l)));
        println!("      {}", ".".repeat(bar(s)));
    }

    paged_section(large_factor, smoke);

    xmark_bench::print_findings(&[Finding::not_reproducible(
        "Fig. 4",
        "on the 100 kB document every query takes between 2.5 s and 5 s",
        "absolute times on 2002 hardware; this binary reports this host's milliseconds",
    )]);
}

/// Backend H on the large document: warm buffer pool vs cold open from
/// the page file, with the pool counters for each pass.
fn paged_section(factor: f64, smoke: bool) {
    let session = Benchmark::at_factor(factor)
        .systems(&[SystemId::H])
        .queries(1..=20)
        .generate();
    let pool_pages = xmark_bench::usize_flag("--pool-pages").unwrap_or(64);

    // Warm pass: scratch-load, run every query once to populate the
    // pool, then measure with the pool warm.
    let warm = session.load_paged(Some(pool_pages));
    for q in 1..=20 {
        measure_query(&warm, q);
    }
    let warm_base = warm.store.paged_stats().expect("H exposes pool stats");

    // Cold pass: persist to a page file, drop everything, re-open cold
    // (no XML parse) and measure straight off the empty pool.
    let path =
        xmark::store::paged::scratch_dir().join(format!("fig4-h-{}.pages", std::process::id()));
    let built = session
        .persist_paged(&path, Some(pool_pages))
        .expect("page file persists");
    let file_pages = built.num_pages();
    drop(built);
    let open_start = std::time::Instant::now();
    let cold = open_paged(&path, Some(pool_pages)).expect("page file re-opens");
    let open_time = open_start.elapsed();

    println!("\n== backend H (paged file, {pool_pages}-frame pool over {file_pages} pages) ==\n");
    println!(
        "cold open: {open_time:.2?} (header + catalog pages only, no XML re-parse); \
         warm bulkload: {:.2?}",
        warm.load_time
    );

    let mut table = TextTable::new(&["Query", "warm pool (ms)", "cold open (ms)", "items"]);
    let mut cold_outputs_match = true;
    for q in 1..=20 {
        let mw = measure_query(&warm, q);
        let mc = measure_query(&cold, q);
        if smoke
            && canonical_output(warm.store.as_ref(), q) != canonical_output(cold.store.as_ref(), q)
        {
            cold_outputs_match = false;
        }
        table.row(vec![
            format!("Q{q}"),
            xmark_bench::ms(mw.total()),
            xmark_bench::ms(mc.total()),
            mc.result_items.to_string(),
        ]);
    }
    println!("{}", table.render());

    let warm_stats = warm
        .store
        .paged_stats()
        .expect("H exposes pool stats")
        .since(&warm_base);
    let cold_stats = cold.store.paged_stats().expect("H exposes pool stats");
    for (label, s) in [("warm", &warm_stats), ("cold", &cold_stats)] {
        println!(
            "{label} pool: {} pages read, {} written, {} evictions, hit rate {:.1}%",
            s.pages_read,
            s.pages_written,
            s.evictions,
            s.hit_rate() * 100.0
        );
    }
    println!(
        "resident {} vs on-disk {} — the pool bounds memory while the \
         page + WAL files hold the database",
        xmark_bench::human_bytes(cold.store.size_bytes()),
        xmark_bench::human_bytes(cold.store.disk_bytes()),
    );

    drop(cold);
    let _ = std::fs::remove_file(path.with_extension("wal"));
    let _ = std::fs::remove_file(&path);

    if smoke {
        assert!(
            cold_outputs_match,
            "cold-opened H disagrees with the warm scratch load"
        );
        println!("\nsmoke: warm/cold byte-identity across Q1-Q20 asserted — OK");
    }
}
