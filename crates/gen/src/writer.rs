//! A streaming XML writer with O(1) memory.
//!
//! §4.5 requires the generator to be "time and resource efficient …
//! resource allocation is constant — independent of the size of the
//! generated document". The writer therefore never buffers the document: it
//! pushes escaped bytes straight into the underlying `io::Write` and only
//! keeps the open-tag stack (bounded by the DTD's nesting depth).

use std::io::{self, Write};

use xmark_xml::escape;

/// Streaming writer tracking the open-element stack and output statistics.
pub struct XmlWriter<W: Write> {
    out: W,
    stack: Vec<&'static str>,
    bytes: u64,
    elements: u64,
    max_depth: usize,
    scratch: String,
}

impl<W: Write> XmlWriter<W> {
    /// Wrap an output sink.
    pub fn new(out: W) -> Self {
        XmlWriter {
            out,
            stack: Vec::with_capacity(16),
            bytes: 0,
            elements: 0,
            max_depth: 0,
            scratch: String::with_capacity(256),
        }
    }

    /// Deepest nesting level reached.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Current nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn write_str(&mut self, s: &str) -> io::Result<()> {
        self.out.write_all(s.as_bytes())?;
        self.bytes += s.len() as u64;
        Ok(())
    }

    /// Emit the XML declaration.
    pub fn declaration(&mut self) -> io::Result<()> {
        self.write_str("<?xml version=\"1.0\" standalone=\"yes\"?>\n")
    }

    /// Open `<tag>`.
    pub fn open(&mut self, tag: &'static str) -> io::Result<()> {
        self.open_with(tag, &[])
    }

    /// Open `<tag a="v" …>`. Attribute values are escaped.
    pub fn open_with(&mut self, tag: &'static str, attrs: &[(&str, &str)]) -> io::Result<()> {
        self.start_tag(tag, attrs)?;
        self.write_str(">")?;
        self.stack.push(tag);
        self.max_depth = self.max_depth.max(self.stack.len());
        Ok(())
    }

    fn start_tag(&mut self, tag: &str, attrs: &[(&str, &str)]) -> io::Result<()> {
        self.elements += 1;
        self.scratch.clear();
        self.scratch.push('<');
        self.scratch.push_str(tag);
        for (name, value) in attrs {
            self.scratch.push(' ');
            self.scratch.push_str(name);
            self.scratch.push_str("=\"");
            escape::escape_attr_into(value, &mut self.scratch);
            self.scratch.push('"');
        }
        let s = std::mem::take(&mut self.scratch);
        self.write_str(&s)?;
        self.scratch = s;
        Ok(())
    }

    /// Close the innermost open element.
    ///
    /// # Panics
    /// Panics if no element is open — a generator bug, not an I/O condition.
    pub fn close(&mut self) -> io::Result<()> {
        let tag = self.stack.pop().expect("close() with no open element");
        self.scratch.clear();
        self.scratch.push_str("</");
        self.scratch.push_str(tag);
        self.scratch.push('>');
        let s = std::mem::take(&mut self.scratch);
        self.write_str(&s)?;
        self.scratch = s;
        Ok(())
    }

    /// Emit `<tag a="v"…/>`.
    pub fn empty(&mut self, tag: &'static str, attrs: &[(&str, &str)]) -> io::Result<()> {
        self.start_tag(tag, attrs)?;
        self.max_depth = self.max_depth.max(self.stack.len() + 1);
        self.write_str("/>")
    }

    /// Emit escaped character data.
    pub fn text(&mut self, text: &str) -> io::Result<()> {
        self.scratch.clear();
        escape::escape_text_into(text, &mut self.scratch);
        let s = std::mem::take(&mut self.scratch);
        self.write_str(&s)?;
        self.scratch = s;
        Ok(())
    }

    /// Emit `<tag>text</tag>`.
    pub fn leaf(&mut self, tag: &'static str, text: &str) -> io::Result<()> {
        self.open(tag)?;
        self.text(text)?;
        self.close()
    }

    /// Emit a raw newline (the only cosmetic whitespace xmlgen produces).
    pub fn newline(&mut self) -> io::Result<()> {
        self.write_str("\n")
    }

    /// Finish writing; verifies all elements are closed and flushes.
    pub fn finish(mut self) -> io::Result<(u64, u64, usize)> {
        assert!(
            self.stack.is_empty(),
            "unclosed elements at finish: {:?}",
            self.stack
        );
        self.out.flush()?;
        Ok((self.bytes, self.elements, self.max_depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(f: impl FnOnce(&mut XmlWriter<&mut Vec<u8>>)) -> String {
        let mut buf = Vec::new();
        let mut w = XmlWriter::new(&mut buf);
        f(&mut w);
        w.finish().unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn writes_nested_elements() {
        let s = render(|w| {
            w.open("site").unwrap();
            w.open_with("person", &[("id", "person0")]).unwrap();
            w.leaf("name", "Alice").unwrap();
            w.close().unwrap();
            w.close().unwrap();
        });
        assert_eq!(
            s,
            r#"<site><person id="person0"><name>Alice</name></person></site>"#
        );
    }

    #[test]
    fn escapes_text_and_attributes() {
        let s = render(|w| {
            w.open_with("a", &[("q", "x<\"y")]).unwrap();
            w.text("1 & 2").unwrap();
            w.close().unwrap();
        });
        assert_eq!(s, "<a q=\"x&lt;&quot;y\">1 &amp; 2</a>");
    }

    #[test]
    fn tracks_statistics() {
        let mut buf = Vec::new();
        let mut w = XmlWriter::new(&mut buf);
        w.open("a").unwrap();
        w.open("b").unwrap();
        w.empty("c", &[]).unwrap();
        w.close().unwrap();
        w.close().unwrap();
        let (bytes, elements, depth) = w.finish().unwrap();
        assert_eq!(bytes, "<a><b><c/></b></a>".len() as u64);
        assert_eq!(elements, 3);
        assert_eq!(depth, 3);
    }

    #[test]
    fn output_parses_back() {
        let s = render(|w| {
            w.declaration().unwrap();
            w.open("site").unwrap();
            w.empty("itemref", &[("item", "item3")]).unwrap();
            w.leaf("price", "40.50").unwrap();
            w.close().unwrap();
        });
        let doc = xmark_xml::parse_document(&s).unwrap();
        assert_eq!(doc.tag_name(doc.root_element()), "site");
    }

    #[test]
    #[should_panic(expected = "unclosed elements")]
    fn finish_panics_on_unclosed() {
        let mut buf = Vec::new();
        let mut w = XmlWriter::new(&mut buf);
        w.open("a").unwrap();
        let _ = w.finish();
    }
}
