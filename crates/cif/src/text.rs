//! The one text sink of the CIF and SVG writers. A document is string
//! literals and decimal integers appended to one `String`, which the
//! writer reserves once from its shape and bristle counts; no number
//! goes through the `fmt` machinery. A value with a `Display` impl of
//! its own (an SVG bristle title) is written by [`Text::escaped`].

use std::fmt;

/// A document under construction.
pub(crate) struct Text(String);

impl Text {
    /// An empty document with room for `bytes` bytes.
    pub(crate) fn with_capacity(bytes: usize) -> Text {
        Text(String::with_capacity(bytes))
    }

    /// Appends `s` as it is.
    pub(crate) fn str(&mut self, s: &str) -> &mut Text {
        self.0.push_str(s);
        self
    }

    /// Appends `v` in decimal, the text `format!("{v}")` gives.
    pub(crate) fn int(&mut self, v: i64) -> &mut Text {
        // Digits from the least significant up; `u64::MAX` has 20.
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut n = v.unsigned_abs();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0 {
            self.0.push('-');
        }
        self.0.extend(digits[i..].iter().map(|&d| char::from(d)));
        self
    }

    /// Appends `v`'s `Display` text as XML character data: `&`, `<`
    /// and `>` become `&amp;`, `&lt;` and `&gt;`.
    pub(crate) fn escaped(&mut self, v: impl fmt::Display) -> &mut Text {
        struct Xml<'a>(&'a mut String);
        impl fmt::Write for Xml<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                let mut start = 0;
                for (i, b) in s.bytes().enumerate() {
                    let entity = match b {
                        b'&' => "&amp;",
                        b'<' => "&lt;",
                        b'>' => "&gt;",
                        _ => continue,
                    };
                    self.0.push_str(&s[start..i]);
                    self.0.push_str(entity);
                    start = i + 1;
                }
                self.0.push_str(&s[start..]);
                Ok(())
            }
        }
        // Neither the `String` nor a `Display` impl of this workspace
        // fails, so the result carries nothing.
        let _ = fmt::write(&mut Xml(&mut self.0), format_args!("{v}"));
        self
    }

    /// The finished document.
    pub(crate) fn into_string(self) -> String {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> String {
        let mut t = Text::with_capacity(0);
        t.int(v);
        t.into_string()
    }

    #[test]
    fn int_matches_format() {
        let mut cases = vec![0, 1, -1, 9, -9, 10, -10, i64::MIN, i64::MAX];
        let mut p: i64 = 1;
        for _ in 1..=18 {
            p *= 10;
            cases.extend([p, -p, p - 1, -(p - 1)]);
        }
        // xorshift64, seeded: every magnitude from 1 to 19 digits.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cases.push((x >> (k % 64)) as i64);
            cases.push(x as i64);
        }
        for v in cases {
            assert_eq!(int(v), format!("{v}"));
        }
    }

    #[test]
    fn chains_literals_and_integers() {
        let mut t = Text::with_capacity(16);
        t.str("B ").int(6).str(" ").int(-4).str(";\n");
        assert_eq!(t.into_string(), "B 6 -4;\n");
    }

    #[test]
    fn escapes_xml_markup() {
        let mut t = Text::with_capacity(0);
        t.escaped("a<b&c>d").escaped(7);
        assert_eq!(t.into_string(), "a&lt;b&amp;c&gt;d7");
    }
}
