//! Builds a [`Document`] from the token stream of [`crate::lexer::Lexer`].
//!
//! Because the builder allocates nodes as the lexer delivers start tags and
//! text, node ids come out in depth-first pre-order — the document-order
//! property the DOM layer documents and the query layer relies on.

use crate::dom::{Document, NodeId};
use crate::error::{Error, Result};
use crate::escape;
use crate::lexer::{Lexer, Token};

/// Parse a complete XML document.
///
/// Whitespace-only text between elements is dropped (the XMark generator
/// emits pretty-printed documents; the paper's queries are insensitive to
/// ignorable whitespace). Text inside mixed content is preserved verbatim.
pub fn parse_document(input: &str) -> Result<Document> {
    let mut doc = Document::new();
    let mut lexer = Lexer::new(input);
    let mut stack: Vec<NodeId> = Vec::with_capacity(32);
    let mut text_buf = String::new();

    loop {
        // Where the token starts: a mismatched end tag reports its `<`.
        let start = lexer.offset();
        let Some(token) = lexer.next_token()? else {
            break;
        };
        match token {
            Token::ProcessingInstruction(_) | Token::Comment(_) | Token::DocType(_) => {}
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => {
                let element = doc.create_element(name);
                for (attr_name, raw_value) in attrs {
                    let value = unescaped(input, raw_value, &mut text_buf)?;
                    doc.set_attribute(element, attr_name, value);
                }
                match stack.last() {
                    Some(&parent) => doc.append_child(parent, element),
                    None => {
                        if doc.try_root().is_some() {
                            return Err(Error::StructureViolation(
                                "multiple root elements".to_string(),
                            ));
                        }
                        doc.set_root(element);
                    }
                }
                if !self_closing {
                    stack.push(element);
                }
            }
            Token::EndTag { name } => {
                let top = stack.pop().ok_or_else(|| {
                    Error::StructureViolation(format!("end tag </{name}> with no open element"))
                })?;
                let open_name = doc.tag_name(top);
                if open_name != name {
                    return Err(Error::MismatchedTag {
                        expected: open_name.to_string(),
                        found: name.to_string(),
                        offset: start,
                    });
                }
            }
            Token::Text { raw, cdata } => {
                let Some(&parent) = stack.last() else {
                    if raw.trim().is_empty() {
                        continue;
                    }
                    return Err(Error::StructureViolation(
                        "character data outside the root element".to_string(),
                    ));
                };
                if raw.trim().is_empty() {
                    continue;
                }
                let text = if cdata {
                    raw.to_string()
                } else {
                    unescaped(input, raw, &mut text_buf)?
                };
                let node = doc.create_text(text);
                doc.append_child(parent, node);
            }
        }
    }

    if let Some(&open) = stack.last() {
        return Err(Error::StructureViolation(format!(
            "unclosed element <{}>",
            doc.tag_name(open)
        )));
    }
    if doc.try_root().is_none() {
        return Err(Error::StructureViolation("no root element".to_string()));
    }
    Ok(doc)
}

/// `raw`, a slice the lexer cut from `input`, with its references
/// resolved, as a string whose capacity is its length. A slice with no `&`
/// is copied once; any other is unescaped into `buf` and copied out of it,
/// and a bad reference reports its own offset in `input`.
fn unescaped(input: &str, raw: &str, buf: &mut String) -> Result<String> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let offset = raw.as_ptr() as usize - input.as_ptr() as usize;
    buf.clear();
    escape::unescape_into(raw, offset, buf)?;
    Ok(buf.clone())
}

/// Scan the input without building a DOM, returning the number of tokens.
///
/// This is the analogue of the paper's expat measurement (§7): tokenization
/// plus required normalization, no semantic actions.
pub fn scan_only(input: &str) -> Result<usize> {
    let mut lexer = Lexer::new(input);
    let mut count = 0usize;
    while lexer.next_token()?.is_some() {
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = parse_document(
            r#"<site><regions><africa><item id="item0"><name>sword</name></item></africa></regions></site>"#,
        )
        .unwrap();
        let root = doc.root_element();
        assert_eq!(doc.tag_name(root), "site");
        let item: Vec<_> = doc
            .descendants(root)
            .filter(|&n| doc.is_element(n) && doc.tag_name(n) == "item")
            .collect();
        assert_eq!(item.len(), 1);
        assert_eq!(doc.attribute(item[0], "id"), Some("item0"));
        assert_eq!(doc.string_value(item[0]), "sword");
    }

    #[test]
    fn drops_ignorable_whitespace() {
        let doc = parse_document("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        let root = doc.root_element();
        assert_eq!(doc.children(root).count(), 2);
    }

    #[test]
    fn preserves_mixed_content_text() {
        let doc = parse_document("<text>one <bold>two</bold> three</text>").unwrap();
        let root = doc.root_element();
        assert_eq!(doc.string_value(root), "one two three");
        assert_eq!(doc.children(root).count(), 3);
    }

    #[test]
    fn unescapes_text_and_attributes() {
        let doc = parse_document(r#"<a note="x &lt; y">1 &amp; 2</a>"#).unwrap();
        let root = doc.root_element();
        assert_eq!(doc.attribute(root, "note"), Some("x < y"));
        assert_eq!(doc.string_value(root), "1 & 2");
    }

    #[test]
    fn rejects_mismatched_tags() {
        let mismatched = |expected: &str, found: &str, offset| Error::MismatchedTag {
            expected: expected.to_string(),
            found: found.to_string(),
            offset,
        };
        // The offset is the end tag's `<`, after an element and after text.
        assert_eq!(
            parse_document("<a><b></a></b>").unwrap_err(),
            mismatched("b", "a", 6)
        );
        assert_eq!(
            parse_document("<a>x</b>").unwrap_err(),
            mismatched("a", "b", 4)
        );
    }

    #[test]
    fn rejects_unclosed_root() {
        assert!(matches!(
            parse_document("<a><b></b>"),
            Err(Error::StructureViolation(_))
        ));
    }

    #[test]
    fn rejects_second_root() {
        assert!(matches!(
            parse_document("<a/><b/>"),
            Err(Error::StructureViolation(_))
        ));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_document("   ").is_err());
    }

    #[test]
    fn accepts_prolog() {
        let doc = parse_document("<?xml version=\"1.0\"?><!DOCTYPE site><site/>").unwrap();
        assert_eq!(doc.tag_name(doc.root_element()), "site");
    }

    #[test]
    fn node_ids_follow_document_order() {
        let doc = parse_document("<a><b><c/></b><d/></a>").unwrap();
        let root = doc.root_element();
        let order: Vec<&str> = doc.descendants(root).map(|n| doc.tag_name(n)).collect();
        assert_eq!(order, vec!["b", "c", "d"]);
        let ids: Vec<_> = doc.descendants(root).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn bad_reference_in_text_reports_its_ampersand() {
        assert_eq!(
            parse_document("<a>x &nbsp; y</a>").unwrap_err(),
            Error::BadReference {
                offset: 5,
                reference: "nbsp".to_string()
            }
        );
    }

    #[test]
    fn bad_reference_in_attribute_reports_its_ampersand() {
        assert_eq!(
            parse_document(r#"<a b="&zz;" c="1">t</a>"#).unwrap_err(),
            Error::BadReference {
                offset: 6,
                reference: "zz".to_string()
            }
        );
    }

    #[test]
    fn scan_only_counts_tokens() {
        let n = scan_only("<a><b>t</b></a>").unwrap();
        assert_eq!(n, 5);
    }
}
