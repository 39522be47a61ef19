//! The former scatter-gather entry point, kept as an alias.
//!
//! A [`xmark_store::ShardedStore`]'s union view already streams every
//! axis in global document order (shard runs concatenate into the
//! ordered merge), so a sharded store runs through the same cursor
//! engine as every other store. The tests below pin that union ≡
//! monolithic on hand-built shard documents.

use xmark_store::XmlStore;

use crate::compile::{execute, Compiled};
use crate::eval::EvalError;
use crate::result::Sequence;

/// Exactly [`execute`]. Exists only because `perflab/src/sut.rs` calls it;
/// the benchmark PR that moves `sut.rs` to `execute` deletes it.
///
/// # Errors
/// As [`execute`].
pub fn execute_scattered(compiled: &Compiled, store: &dyn XmlStore) -> Result<Sequence, EvalError> {
    execute(compiled, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::result::serialize_sequence;
    use xmark_store::{ShardedStore, SystemId};

    const GLOBAL: &str = "<site><regions><africa><item id=\"item0\"><name>i0</name></item><item id=\"item1\"><name>i1</name></item></africa></regions><categories><category id=\"cat0\"/></categories><catgraph/><people/><open_auctions/><closed_auctions/></site>";
    const SHARD0: &str = "<site><regions/><categories/><catgraph/><people><person id=\"person0\"><name>Ada</name></person></people><open_auctions><open_auction id=\"open0\"><bidder><increase>3</increase></bidder></open_auction></open_auctions><closed_auctions/></site>";
    const SHARD1: &str = "<site><regions/><categories/><catgraph/><people><person id=\"person1\"><name>Bob</name></person><person id=\"person2\"><name>Cyd</name></person></people><open_auctions/><closed_auctions><closed_auction><price>7</price></closed_auction></closed_auctions></site>";
    const WHOLE: &str = "<site><regions><africa><item id=\"item0\"><name>i0</name></item><item id=\"item1\"><name>i1</name></item></africa></regions><categories><category id=\"cat0\"/></categories><catgraph/><people><person id=\"person0\"><name>Ada</name></person><person id=\"person1\"><name>Bob</name></person><person id=\"person2\"><name>Cyd</name></person></people><open_auctions><open_auction id=\"open0\"><bidder><increase>3</increase></bidder></open_auction></open_auctions><closed_auctions><closed_auction><price>7</price></closed_auction></closed_auctions></site>";

    fn union() -> ShardedStore {
        ShardedStore::load(SystemId::A, &[GLOBAL, SHARD0, SHARD1]).unwrap()
    }

    fn oracle(query: &str) {
        let sharded = union();
        let whole = xmark_store::EdgeStore::load(WHOLE).unwrap();
        let cs = compile(query, &sharded).unwrap();
        let got = execute_scattered(&cs, &sharded).unwrap();
        let cw = compile(query, &whole).unwrap();
        let expected = execute(&cw, &whole).unwrap();
        assert_eq!(
            serialize_sequence(&sharded, &got),
            serialize_sequence(&whole, &expected),
            "union != monolithic for {query}"
        );
    }

    #[test]
    fn doc_order_path_merges_across_shards() {
        oracle("/site/people/person/name");
        // Spans sections owned by different shards.
        oracle("//name");
        oracle("/site");
    }

    #[test]
    fn append_flwor_partitions_the_driver() {
        oracle("for $p in /site/people/person return $p/name/text()");
        // A non-equi filter stays a NestedLoop filter; the equi
        // predicate below plans as a Lookup.
        oracle(r#"for $p in /site/people/person where $p/name != "Zed" return $p/name/text()"#);
        oracle(r#"for $p in /site/people/person where $p/@id = "person1" return $p/name/text()"#);
    }

    #[test]
    fn sum_combines_partial_counts() {
        oracle("count(for $p in //person return $p)");
    }

    #[test]
    fn gather_plans_run_on_the_union() {
        oracle("for $p in //person order by $p/name return $p/name/text()");
        // Attribute-final paths atomize.
        oracle("//person/@id");
    }

    #[test]
    fn hash_join_broadcasts_the_build_side() {
        let q = r#"for $a in /site/open_auctions/open_auction, $p in /site/people/person
                   where $a/@id = $p/@id return $p"#;
        oracle(q);
    }

    #[test]
    fn monolithic_stores_fall_through_to_plain_execute() {
        let whole = xmark_store::EdgeStore::load(WHOLE).unwrap();
        let c = compile("//person", &whole).unwrap();
        let a = execute_scattered(&c, &whole).unwrap();
        let b = execute(&c, &whole).unwrap();
        assert_eq!(
            serialize_sequence(&whole, &a),
            serialize_sequence(&whole, &b)
        );
    }
}
