//! Escaping and unescaping of XML character data and attribute values.
//!
//! XMark documents are plain 7-bit ASCII (§4.4 of the paper) and use only
//! the five predefined entities, so this module deliberately implements just
//! `&lt; &gt; &amp; &apos; &quot;` plus decimal/hex character references.

use std::fmt;

use crate::error::{Error, Result};

/// Escape `text` into an arbitrary [`fmt::Write`] sink, replacing the
/// characters that are unsafe in element content (`<`, `>`, `&`).
///
/// Safe runs are written as whole slices, so the per-character dispatch
/// cost of a `dyn` sink is only paid at the (rare) metacharacters.
pub fn escape_text_to(text: &str, out: &mut dyn fmt::Write) -> fmt::Result {
    escape_runs(text, out, |b| matches!(b, b'<' | b'>' | b'&'))
}

/// Escape `value` into an arbitrary [`fmt::Write`] sink, replacing the
/// characters that are unsafe inside a double-quoted attribute value.
pub fn escape_attr_to(value: &str, out: &mut dyn fmt::Write) -> fmt::Result {
    escape_runs(value, out, |b| matches!(b, b'<' | b'>' | b'&' | b'"'))
}

/// Write `text` as alternating safe slices and entity replacements. The
/// metacharacters are all ASCII, so scanning bytes never splits a UTF-8
/// sequence.
fn escape_runs(
    text: &str,
    out: &mut dyn fmt::Write,
    unsafe_byte: impl Fn(u8) -> bool,
) -> fmt::Result {
    let bytes = text.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if unsafe_byte(b) {
            if start < i {
                out.write_str(&text[start..i])?;
            }
            out.write_str(match b {
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'&' => "&amp;",
                _ => "&quot;",
            })?;
            start = i + 1;
        }
    }
    if start < bytes.len() {
        out.write_str(&text[start..])?;
    }
    Ok(())
}

/// Append `text` to `out`, escaping the characters that are unsafe in
/// element content (`<`, `>`, `&`).
pub fn escape_text_into(text: &str, out: &mut String) {
    let _ = escape_text_to(text, out); // writing to a String cannot fail
}

/// Append `value` to `out`, escaping the characters that are unsafe inside
/// a double-quoted attribute value.
pub fn escape_attr_into(value: &str, out: &mut String) {
    let _ = escape_attr_to(value, out); // writing to a String cannot fail
}

/// Escape element content, returning a new string.
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_text_into(text, &mut out);
    out
}

/// Resolve a single reference body (the part between `&` and `;`).
///
/// `offset` is only used for error reporting.
pub fn resolve_reference(body: &str, offset: usize) -> Result<char> {
    match body {
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "amp" => Ok('&'),
        "apos" => Ok('\''),
        "quot" => Ok('"'),
        _ => {
            let code =
                if let Some(hex) = body.strip_prefix("#x").or_else(|| body.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()
                } else if let Some(dec) = body.strip_prefix('#') {
                    dec.parse::<u32>().ok()
                } else {
                    None
                };
            code.and_then(char::from_u32).ok_or(Error::BadReference {
                offset,
                reference: body.to_string(),
            })
        }
    }
}

/// Unescape a slice of raw character data into `out`.
///
/// `base_offset` is the byte offset of `raw` in its input; a bad reference
/// is reported at `base_offset` plus the position of its `&`. Each run of
/// character data between references is copied as one slice.
///
/// Returns an error for malformed or unknown references; the XMark
/// generator never emits such data, but hand-written inputs might.
pub fn unescape_into(raw: &str, base_offset: usize, out: &mut String) -> Result<()> {
    let mut rest = raw;
    let mut offset = base_offset;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let reference = &rest[amp + 1..];
        let end = reference.find(';').ok_or(Error::UnexpectedEof {
            context: "entity reference",
        })?;
        out.push(resolve_reference(&reference[..end], offset + amp)?);
        rest = &reference[end + 1..];
        offset += amp + end + 2;
    }
    out.push_str(rest);
    Ok(())
}

/// Unescape raw character data, returning a new string.
pub fn unescape(raw: &str) -> Result<String> {
    let mut out = String::with_capacity(raw.len());
    unescape_into(raw, 0, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn escapes_the_three_text_metacharacters() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn escapes_quotes_in_attributes() {
        let mut s = String::new();
        escape_attr_into("say \"hi\"", &mut s);
        assert_eq!(s, "say &quot;hi&quot;");
    }

    #[test]
    fn unescapes_predefined_entities() {
        assert_eq!(unescape("&lt;&gt;&amp;&apos;&quot;").unwrap(), "<>&'\"");
    }

    #[test]
    fn unescapes_numeric_references() {
        assert_eq!(unescape("&#65;&#x42;").unwrap(), "AB");
    }

    #[test]
    fn roundtrips_arbitrary_ascii() {
        let original = "price > 40 & cost < 100";
        assert_eq!(unescape(&escape_text(original)).unwrap(), original);
    }

    #[test]
    fn rejects_unknown_entity() {
        assert!(matches!(
            unescape("&nbsp;"),
            Err(Error::BadReference { .. })
        ));
    }

    #[test]
    fn rejects_unterminated_reference() {
        assert!(matches!(unescape("&amp"), Err(Error::UnexpectedEof { .. })));
    }

    #[test]
    fn passes_multibyte_utf8_through() {
        assert_eq!(unescape("caf\u{e9}").unwrap(), "caf\u{e9}");
    }

    /// The character-at-a-time loop `unescape_into` ran before it copied
    /// runs: the reference for output, error variant and error offset.
    fn char_by_char_unescape_into(raw: &str, base_offset: usize, out: &mut String) -> Result<()> {
        let bytes = raw.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'&' {
                let rest = &raw[i + 1..];
                let end = rest.find(';').ok_or(Error::UnexpectedEof {
                    context: "entity reference",
                })?;
                out.push(resolve_reference(&rest[..end], base_offset + i)?);
                i += end + 2;
            } else {
                let ch_len = match bytes[i] {
                    0..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                out.push_str(&raw[i..i + ch_len]);
                i += ch_len;
            }
        }
        Ok(())
    }

    /// Pieces the inputs are spliced from: ASCII, multi-byte UTF-8 that
    /// lands next to references, known, numeric and unknown references, a
    /// lone `&` or `;`, and an unterminated `&amp`.
    const PIECES: &[&str] = &[
        "a",
        "price 40",
        " ",
        "\u{e9}",
        "\u{65e5}\u{672c}",
        "\u{1f980}",
        "&amp;",
        "&lt;",
        "&gt;",
        "&apos;",
        "&quot;",
        "&#65;",
        "&#x42;",
        "&#x1F980;",
        "&#1114112;",
        "&#xZZ;",
        "&nbsp;",
        "&",
        ";",
        "&amp",
        "&;",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn run_copying_unescape_matches_the_char_loop(
            picks in prop::collection::vec(0..PIECES.len(), 0..16),
            base in 0..1000usize,
        ) {
            let raw: String = picks.iter().map(|&i| PIECES[i]).collect();
            let (mut new_out, mut old_out) = (String::new(), String::new());
            let new = unescape_into(&raw, base, &mut new_out);
            let old = char_by_char_unescape_into(&raw, base, &mut old_out);
            prop_assert_eq!(new, old, "input {:?}", raw);
            prop_assert_eq!(new_out, old_out, "input {:?}", raw);
        }
    }
}
