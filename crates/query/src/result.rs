//! The query result model: items, sequences, serialization and
//! canonicalization.
//!
//! §1 of the paper: "Our experience suggests that the problem of deciding
//! when to regard the output of XML query processors as equivalent still
//! requires research." Our answer, for the benchmark's own verification
//! suite, is [`canonicalize`]: serialize every item, with constructed
//! elements' attributes sorted, and join with newlines — two engines (or
//! two storage backends) agree iff their canonical outputs are equal.
//!
//! Serialization is **sink-generic**: [`write_item`] and
//! [`write_sequence`] stream bytes into any [`fmt::Write`] target
//! (a `String`, a byte counter, or an [`IoSink`] wrapping an
//! [`io::Write`]), so a [`crate::stream::ResultStream`] can serialize
//! results item by item without ever materializing the whole output. The
//! `String`-returning helpers ([`serialize_sequence`], [`canonicalize`])
//! are thin wrappers over the same code.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io;
use std::sync::Arc;

use xmark_store::{Node, XmlStore};

/// A constructed element (the output of a direct element constructor).
#[derive(Debug, Clone, PartialEq)]
pub struct CElem {
    /// Tag name.
    pub tag: String,
    /// Attributes in construction order.
    pub attrs: Vec<(String, String)>,
    /// Children: copied store nodes, atomics, nested constructions.
    pub children: Vec<Item>,
}

/// One item of a result sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A node of the queried store.
    Node(Node),
    /// A string.
    Str(Arc<str>),
    /// A number (XQuery `double`).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A constructed element.
    Elem(Arc<CElem>),
}

impl Item {
    /// Build a string item.
    pub fn str(s: impl AsRef<str>) -> Self {
        Item::Str(Arc::from(s.as_ref()))
    }
}

/// A sequence of items — every expression evaluates to one.
pub type Sequence = Vec<Item>;

/// Format a number the XQuery way: integral values print without a
/// fractional part, the non-finite values use the XQuery spellings
/// (`INF`, `-INF`, `NaN`), and huge integral values stay in positional
/// notation (Rust's `{}` would switch to scientific at 1e16).
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 { "INF" } else { "-INF" }.to_string()
    } else if n.fract() == 0.0 {
        if n.abs() < 1e15 {
            format!("{}", n as i64)
        } else {
            // Fixed-point rendering keeps 1e15-and-up integral values out
            // of scientific notation ("1000000000000000000", not "1e18").
            format!("{n:.0}")
        }
    } else {
        format!("{n}")
    }
}

/// The number `s` spells, read as an XML Schema `xs:double` lexical
/// form: an optional sign, digits with an optional fraction (or a bare
/// fraction), an optional exponent, or exactly `NaN`, `INF` or `-INF`.
/// `None` for anything else — Rust's `f64::from_str` would also take
/// `nan`, `inf`, `infinity` and `+inf` in any case, and none of those is
/// an XQuery number. Callers trim first. Every site that asks "is this
/// text a number" (general comparison, `number()`, order keys and the
/// Lookup's key index) asks here, so they agree.
pub(crate) fn xs_double(s: &str) -> Option<f64> {
    match s {
        "NaN" => return Some(f64::NAN),
        "INF" => return Some(f64::INFINITY),
        "-INF" => return Some(f64::NEG_INFINITY),
        _ => {}
    }
    let b = s.as_bytes();
    let digits = |i: &mut usize| {
        let start = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i - start
    };
    let mut i = usize::from(matches!(b.first(), Some(b'+' | b'-')));
    let mut mantissa = digits(&mut i);
    if b.get(i) == Some(&b'.') {
        i += 1;
        mantissa += digits(&mut i);
    }
    if mantissa == 0 {
        return None;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if digits(&mut i) == 0 {
            return None;
        }
    }
    if i != b.len() {
        return None;
    }
    s.parse().ok()
}

/// The atomized (string) value of an item.
pub fn atomize(store: &dyn XmlStore, item: &Item) -> String {
    match item {
        Item::Node(n) => store.string_value(*n),
        _ => atomized(store, item).into_owned(),
    }
}

/// The atomized value of an item, lent where it already exists as text:
/// a string item's own text, a text node's content on the backends that
/// lend it, and the spelling of a boolean.
pub(crate) fn atomized<'s>(store: &'s dyn XmlStore, item: &'s Item) -> Cow<'s, str> {
    match item {
        Item::Node(n) => node_string_value(store, *n),
        Item::Str(s) => Cow::Borrowed(s),
        Item::Num(n) => Cow::Owned(format_number(*n)),
        Item::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
        Item::Elem(e) => {
            let mut out = String::new();
            elem_string_value(store, e, &mut out);
            Cow::Owned(out)
        }
    }
}

/// The string value of node `n`: a text node's content as the store
/// hands it out (lent by every RAM-resident backend), an element's
/// subtree text otherwise.
pub(crate) fn node_string_value(store: &dyn XmlStore, n: Node) -> Cow<'_, str> {
    store
        .text(n)
        .unwrap_or_else(|| Cow::Owned(store.string_value(n)))
}

fn elem_string_value(store: &dyn XmlStore, elem: &CElem, out: &mut String) {
    for child in &elem.children {
        match child {
            Item::Node(n) => store.string_value_into(*n, out),
            Item::Str(s) => out.push_str(s),
            Item::Num(n) => out.push_str(&format_number(*n)),
            Item::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Item::Elem(e) => elem_string_value(store, e, out),
        }
    }
}

/// The numeric value of an item, if it has one.
pub fn number(store: &dyn XmlStore, item: &Item) -> Option<f64> {
    match item {
        Item::Num(n) => Some(*n),
        Item::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => xs_double(atomized(store, item).trim()),
    }
}

/// Serialize one item as XML text into any [`fmt::Write`] sink (store
/// nodes reconstruct through the store — the cost Q13 measures).
pub fn write_item<W: fmt::Write + ?Sized>(
    store: &dyn XmlStore,
    item: &Item,
    out: &mut W,
) -> fmt::Result {
    write_opts(store, item, out, false)
}

/// Serialize a whole sequence into any [`fmt::Write`] sink, one item per
/// line — byte-identical to [`serialize_sequence`].
pub fn write_sequence<W: fmt::Write + ?Sized>(
    store: &dyn XmlStore,
    seq: &[Item],
    out: &mut W,
) -> fmt::Result {
    for (i, item) in seq.iter().enumerate() {
        if i > 0 {
            out.write_char('\n')?;
        }
        write_item(store, item, out)?;
    }
    Ok(())
}

fn write_opts<W: fmt::Write + ?Sized>(
    store: &dyn XmlStore,
    item: &Item,
    out: &mut W,
    canonical: bool,
) -> fmt::Result {
    match item {
        // `&mut W` (sized) re-borrows coerce to the `dyn` sinks the
        // store/escape primitives take, even when `W` itself is unsized.
        Item::Node(n) => store.serialize_node_to(*n, &mut &mut *out),
        Item::Str(s) => xmark_xml::escape::escape_text_to(s, &mut &mut *out),
        Item::Num(n) => out.write_str(&format_number(*n)),
        Item::Bool(b) => write!(out, "{b}"),
        Item::Elem(e) => {
            out.write_char('<')?;
            out.write_str(&e.tag)?;
            if canonical {
                let mut sorted: Vec<_> = e.attrs.iter().collect();
                sorted.sort();
                for (name, value) in sorted {
                    write_attr(name, value, out)?;
                }
            } else {
                for (name, value) in &e.attrs {
                    write_attr(name, value, out)?;
                }
            }
            if e.children.is_empty() {
                return out.write_str("/>");
            }
            out.write_char('>')?;
            for (i, child) in e.children.iter().enumerate() {
                // Adjacent atomic items are separated by a space, per the
                // XQuery serialization rules.
                if i > 0
                    && matches!(child, Item::Str(_) | Item::Num(_) | Item::Bool(_))
                    && matches!(
                        e.children[i - 1],
                        Item::Str(_) | Item::Num(_) | Item::Bool(_)
                    )
                {
                    out.write_char(' ')?;
                }
                write_opts(store, child, out, canonical)?;
            }
            out.write_str("</")?;
            out.write_str(&e.tag)?;
            out.write_char('>')
        }
    }
}

fn write_attr<W: fmt::Write + ?Sized>(name: &str, value: &str, out: &mut W) -> fmt::Result {
    out.write_char(' ')?;
    out.write_str(name)?;
    out.write_str("=\"")?;
    xmark_xml::escape::escape_attr_to(value, &mut &mut *out)?;
    out.write_char('"')
}

/// Serialize one item as XML text, appending to a `String`.
pub fn serialize_item(store: &dyn XmlStore, item: &Item, out: &mut String) {
    let _ = write_opts(store, item, out, false); // String writes cannot fail
}

/// Serialize a whole sequence, one item per line.
pub fn serialize_sequence(store: &dyn XmlStore, seq: &[Item]) -> String {
    let mut out = String::new();
    let _ = write_sequence(store, seq, &mut out);
    out
}

/// Canonical serialization for output-equivalence checking.
pub fn canonicalize(store: &dyn XmlStore, seq: &[Item]) -> String {
    let mut out = String::new();
    for (i, item) in seq.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = write_opts(store, item, &mut out, true);
    }
    out
}

/// Adapter turning any [`io::Write`] into the [`fmt::Write`] sink the
/// serialization functions expect, so results can stream straight to a
/// file, socket, or `Vec<u8>`.
///
/// `fmt::Error` carries no payload, so the first underlying I/O error is
/// parked in the adapter and retrievable via [`IoSink::take_error`] after
/// the write returns.
pub struct IoSink<W: io::Write> {
    inner: W,
    bytes: u64,
    error: Option<io::Error>,
}

impl<W: io::Write> IoSink<W> {
    /// Wrap an [`io::Write`] target.
    pub fn new(inner: W) -> Self {
        IoSink {
            inner,
            bytes: 0,
            error: None,
        }
    }

    /// Bytes successfully written so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The first I/O error the underlying writer reported, if any.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Unwrap the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: io::Write> fmt::Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.error.is_some() {
            return Err(fmt::Error);
        }
        match self.inner.write_all(s.as_bytes()) {
            Ok(()) => {
                self.bytes += s.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.error = Some(e);
                Err(fmt::Error)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmark_store::NaiveStore;

    fn store() -> NaiveStore {
        NaiveStore::load(r#"<site><name>Alice</name></site>"#).unwrap()
    }

    #[test]
    fn number_formatting_trims_integers() {
        assert_eq!(format_number(2.0), "2");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(-3.0), "-3");
    }

    #[test]
    fn number_formatting_uses_xquery_nonfinite_spellings() {
        // Rust's `{}` prints "inf"/"NaN"; XQuery spells them INF/-INF/NaN.
        assert_eq!(format_number(f64::INFINITY), "INF");
        assert_eq!(format_number(f64::NEG_INFINITY), "-INF");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(-f64::NAN), "NaN");
    }

    #[test]
    fn number_formatting_keeps_huge_integers_positional() {
        // At 1e15 the i64 cast still fits; far beyond it `{}` would print
        // scientific notation ("1e18") — XQuery keeps positional digits.
        assert_eq!(format_number(1e15), "1000000000000000");
        assert_eq!(format_number(1e18), "1000000000000000000");
        assert_eq!(format_number(-1e18), "-1000000000000000000");
        assert_eq!(format_number(1e19), "10000000000000000000");
        assert!(!format_number(123456789012345680.0).contains('e'));
    }

    #[test]
    fn atomize_handles_every_item_kind() {
        let s = store();
        let names: Vec<_> = s.descendants_named_iter(s.root(), "name").collect();
        assert_eq!(atomize(&s, &Item::Node(names[0])), "Alice");
        assert_eq!(atomize(&s, &Item::str("x")), "x");
        assert_eq!(atomize(&s, &Item::Num(4.0)), "4");
        assert_eq!(atomize(&s, &Item::Bool(true)), "true");
        let elem = Item::Elem(Arc::new(CElem {
            tag: "t".into(),
            attrs: vec![],
            children: vec![Item::str("a"), Item::Node(names[0])],
        }));
        assert_eq!(atomize(&s, &elem), "aAlice");
    }

    #[test]
    fn serialization_escapes_and_nests() {
        let s = store();
        let elem = Item::Elem(Arc::new(CElem {
            tag: "increase".into(),
            attrs: vec![("first".into(), "1<2".into())],
            children: vec![Item::str("a&b")],
        }));
        let mut out = String::new();
        serialize_item(&s, &elem, &mut out);
        assert_eq!(out, r#"<increase first="1&lt;2">a&amp;b</increase>"#);
    }

    #[test]
    fn canonicalize_sorts_constructed_attributes() {
        let s = store();
        let elem = Item::Elem(Arc::new(CElem {
            tag: "e".into(),
            attrs: vec![("z".into(), "1".into()), ("a".into(), "2".into())],
            children: vec![],
        }));
        assert_eq!(
            canonicalize(&s, std::slice::from_ref(&elem)),
            r#"<e a="2" z="1"/>"#
        );
        let mut plain = String::new();
        serialize_item(&s, &elem, &mut plain);
        assert_eq!(plain, r#"<e z="1" a="2"/>"#);
    }

    #[test]
    fn adjacent_atomics_get_space_separated() {
        let s = store();
        let elem = Item::Elem(Arc::new(CElem {
            tag: "t".into(),
            attrs: vec![],
            children: vec![Item::Num(1.0), Item::Num(2.0)],
        }));
        let mut out = String::new();
        serialize_item(&s, &elem, &mut out);
        assert_eq!(out, "<t>1 2</t>");
    }

    #[test]
    fn sequence_serialization_is_line_separated() {
        let s = store();
        let seq = vec![Item::Num(1.0), Item::str("two")];
        assert_eq!(serialize_sequence(&s, &seq), "1\ntwo");
    }

    #[test]
    fn write_sequence_agrees_with_serialize_sequence() {
        let s = store();
        let names: Vec<_> = s.descendants_named_iter(s.root(), "name").collect();
        let seq = vec![
            Item::Node(names[0]),
            Item::Num(f64::INFINITY),
            Item::str("a<b"),
            Item::Elem(Arc::new(CElem {
                tag: "t".into(),
                attrs: vec![("k".into(), "v\"w".into())],
                children: vec![Item::Bool(true)],
            })),
        ];
        let mut sunk = String::new();
        write_sequence(&s, &seq, &mut sunk).unwrap();
        assert_eq!(sunk, serialize_sequence(&s, &seq));
    }

    #[test]
    fn io_sink_streams_bytes_and_counts() {
        let s = store();
        let names: Vec<_> = s.descendants_named_iter(s.root(), "name").collect();
        let seq = vec![Item::Node(names[0]), Item::Num(7.0)];
        let mut sink = IoSink::new(Vec::<u8>::new());
        write_sequence(&s, &seq, &mut sink).unwrap();
        assert!(sink.take_error().is_none());
        let expected = serialize_sequence(&s, &seq);
        assert_eq!(sink.bytes(), expected.len() as u64);
        assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), expected);
    }

    #[test]
    fn io_sink_parks_the_underlying_error() {
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let s = store();
        let mut sink = IoSink::new(Broken);
        assert!(write_sequence(&s, &[Item::Num(1.0)], &mut sink).is_err());
        let err = sink.take_error().expect("error parked");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn xs_double_reads_the_xml_schema_forms_only() {
        for (text, expected) in [
            ("42", Some(42.0)),
            ("-0", Some(0.0)),
            ("+.5", Some(0.5)),
            ("5.", Some(5.0)),
            ("1E3", Some(1000.0)),
            ("1e+3", Some(1000.0)),
            ("-2.5e-1", Some(-0.25)),
            ("INF", Some(f64::INFINITY)),
            ("-INF", Some(f64::NEG_INFINITY)),
        ] {
            assert_eq!(xs_double(text), expected, "{text:?}");
        }
        assert!(xs_double("NaN").is_some_and(f64::is_nan));
        for text in [
            "", ".", "+", "-", "e3", "1e", "1e+", " 1", "1 ", "0x10", "1_000", "nan", "Nan", "inf",
            "+INF", "Infinity", "infinity", "-inf", "1.2.3",
        ] {
            assert_eq!(xs_double(text), None, "{text:?}");
        }
    }

    #[test]
    fn number_parses_node_text() {
        let s = NaiveStore::load("<a><price>40.5</price></a>").unwrap();
        let price = s.descendants_named_iter(s.root(), "price").next().unwrap();
        assert_eq!(number(&s, &Item::Node(price)), Some(40.5));
        assert_eq!(number(&s, &Item::str("x")), None);
    }
}
