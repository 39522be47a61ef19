//! Byte-identity pins for the generator and the parser.
//!
//! The generator's output is the benchmark's data: a faster sampler or
//! writer must emit exactly the same bytes, and a faster parser must build
//! exactly the same DOM. Each pin is the FNV-1a-64 digest of a document
//! (or of `serialize(parse_document(..))` of it), recorded before the
//! Zipf guide table and the run-copying unescape went in.

use xmark_gen::{generate_sharded, generate_string, GeneratorConfig};
use xmark_xml::{parse_document, serialize};

/// FNV-1a-64 of `text`, as 16 lowercase hex digits.
fn digest(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn document(factor: f64, seed: u64) -> String {
    generate_string(&GeneratorConfig { factor, seed })
}

fn dom_digest(xml: &str) -> String {
    digest(&serialize(
        &parse_document(xml).expect("generated XML parses"),
    ))
}

#[test]
fn generated_documents_match_their_pins() {
    for (factor, len, pin) in [
        (0.001, 98_134, "ef129b8276fa1cfd"),
        (0.005, 449_708, "e3770d8ad2e52ec6"),
        (0.01, 942_481, "f4435be8b303eba9"),
    ] {
        let xml = document(factor, 0);
        assert_eq!(xml.len(), len, "length at factor {factor}");
        assert_eq!(digest(&xml), pin, "digest at factor {factor}");
    }
}

#[test]
fn a_second_seed_matches_its_pins() {
    let xml = document(0.002, 1);
    assert_eq!(digest(&xml), "ef4d9ac198082050");
    assert_eq!(dom_digest(&xml), "d7915ff25150fcb3");
}

#[test]
fn parsed_dom_matches_its_pin() {
    assert_eq!(dom_digest(&document(0.01, 0)), "af1cbf23692593c6");
}

#[test]
fn sharded_parts_match_their_pins() {
    let parts = generate_sharded(&GeneratorConfig::at_factor(0.005), 2);
    let digests: Vec<String> = parts.iter().map(|p| digest(&p.content)).collect();
    assert_eq!(
        digests,
        ["247c289e8b1d0b49", "d657a52e05295e51", "d7a5b95a9a6440f9"]
    );
}

#[test]
fn large_documents_and_their_doms_match_their_pins() {
    for (factor, doc_pin, dom_pin) in [
        (0.05, "de598f381fc5df71", "2cccc194c7709938"),
        (0.1, "fc048b2ca67d2a00", "079254dd84ca1fcc"),
    ] {
        let xml = document(factor, 0);
        assert_eq!(digest(&xml), doc_pin, "digest at factor {factor}");
        assert_eq!(dom_digest(&xml), dom_pin, "DOM digest at factor {factor}");
    }
}
