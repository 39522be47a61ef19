//! Helpers shared by the integration tests that update a store: one
//! fixed update script and the structural lookups it is built from.

use std::sync::Arc;

use xmark::prelude::*;
use xmark::store::Node;

/// Walk `path` tags from the root, taking the first match at each step.
pub fn descend(store: &dyn XmlStore, path: &[&str]) -> Node {
    let mut n = store.root();
    for tag in path {
        n = store
            .children_named_iter(n, tag)
            .next()
            .unwrap_or_else(|| panic!("no <{tag}> under node {}", n.0));
    }
    n
}

/// The first text-node child of `n`.
pub fn first_text_child(store: &dyn XmlStore, n: Node) -> Node {
    store
        .children_iter(n)
        .find(|&c| store.is_text_node(c))
        .unwrap_or_else(|| panic!("node {} has no text child", n.0))
}

pub const NEW_BIDDER: &str = "<bidder><date>28/07/2026</date><time>12:00:00</time>\
     <personref person=\"person0\"/><increase>9.50</increase></bidder>";

pub const NEW_PERSON: &str = "<person id=\"txnperson0\"><name>Txn Tester</name>\
     <emailaddress>mailto:txn@example.invalid</emailaddress></person>";

/// One fixed update script, located structurally so it applies to any
/// backend: grow an auction, add a person, prune a closed auction,
/// rewrite a price.
pub fn apply_update_script(versioned: &Arc<VersionedStore>) {
    let s = versioned.snapshot();
    let auction = descend(s.as_ref(), &["open_auctions", "open_auction"]);
    let people = descend(s.as_ref(), &["people"]);
    let mut txn = versioned.begin();
    txn.insert_subtree(auction, NEW_BIDDER);
    txn.insert_subtree(people, NEW_PERSON);
    txn.commit().expect("insert script commits");

    let s = versioned.snapshot();
    if let Some(closed) = s
        .children_named_iter(descend(s.as_ref(), &["closed_auctions"]), "closed_auction")
        .next()
    {
        let mut txn = versioned.begin();
        txn.delete_subtree(closed);
        txn.commit().expect("delete script commits");
    }

    let s = versioned.snapshot();
    let price = descend(s.as_ref(), &["open_auctions", "open_auction", "current"]);
    let mut txn = versioned.begin();
    txn.replace_text(first_text_child(s.as_ref(), price), "424.42");
    txn.commit().expect("text script commits");
}
