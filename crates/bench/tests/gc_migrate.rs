//! The `gc_migrate` rows time translation-block migration too: on the
//! aged 512 MB device, both FTLs' timed passes migrate valid translation
//! pages, so a regression in `gc::migrate_translation_pages` or
//! `Flash::supersede_translation_page` moves the strictly gated rows.
//! `pages_per_trans_victim` is a simulated counter: it repeats on any
//! machine. The sizing is `ftlbench --quick`'s (one sample here).

use serde_json::Value;
use tpftl_bench::scenarios::bench_gc_migrate;
use tpftl_experiments::runner::FtlKind;

const QUICK_MIGRATE_VICTIMS: u64 = 2000;

#[test]
fn both_rows_migrate_translation_pages() {
    for kind in [FtlKind::Tpftl, FtlKind::Dftl] {
        let row = bench_gc_migrate(kind, 0, 1, QUICK_MIGRATE_VICTIMS);
        let pages = match row
            .extra
            .iter()
            .find(|(key, _)| *key == "pages_per_trans_victim")
        {
            Some((_, Value::Float(pages))) => *pages,
            other => panic!("{}: no pages_per_trans_victim ({other:?})", row.ftl),
        };
        assert!(pages > 0.0, "{}: no translation page migrated", row.ftl);
    }
}
