//! The one writer behind every `BENCH_*.json` trajectory point.
//!
//! Every point shares one layout, which `ci.sh` greps and the committed
//! files pin byte for byte:
//!
//! - a top-level object with one `"key": value` per line at 2-space
//!   indent, closed by `}` and a trailing newline;
//! - top-level arrays of rows ([`Obj::rows`]), one inline object per
//!   line at 4-space indent;
//! - everything below the top level inline: `{"k": v, "k": v}` and
//!   `[a, b]`;
//! - floats at a fixed number of decimals chosen per field ([`Fixed`]),
//!   and `null` for `None` and for non-finite floats;
//! - pre-rendered JSON (the compact `FleetMetrics::to_json`) embedded
//!   verbatim through [`Raw`].

use std::fmt::Write as _;

/// A value the writer can render inline.
pub trait Value {
    /// Appends the value's JSON text to `out`.
    fn render(&self, out: &mut String);
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn render(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

display_values!(bool, u32, u64, usize);

impl Value for str {
    fn render(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Value for String {
    fn render(&self, out: &mut String) {
        self.as_str().render(out);
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn render(&self, out: &mut String) {
        (**self).render(out);
    }
}

impl<T: Value> Value for Option<T> {
    fn render(&self, out: &mut String) {
        match self {
            Some(v) => v.render(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Value> Value for [T] {
    fn render(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            v.render(out);
        }
        out.push(']');
    }
}

/// A float written with a fixed number of decimals: `Fixed(x, 3)`
/// renders like `format!("{x:.3}")`, and a non-finite `x` as `null`.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn render(&self, out: &mut String) {
        let Fixed(x, decimals) = *self;
        if x.is_finite() {
            let _ = write!(out, "{x:.decimals$}");
        } else {
            out.push_str("null");
        }
    }
}

/// Already-rendered JSON, inserted verbatim.
#[derive(Debug, Clone, Copy)]
pub struct Raw<'a>(pub &'a str);

impl Value for Raw<'_> {
    fn render(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

/// A JSON object whose fields keep their insertion order: inline as a
/// [`Value`], or a whole trajectory point through [`write()`].
#[derive(Debug, Clone, Default)]
pub struct Obj {
    /// `(rendered key, field)` pairs.
    fields: Vec<(String, Field)>,
}

#[derive(Debug, Clone)]
enum Field {
    Value(String),
    /// Rendered inline objects, one per line in a document.
    Rows(Vec<String>),
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `"key": value`.
    pub fn field(mut self, key: &str, value: impl Value) -> Self {
        self.fields
            .push((rendered(key), Field::Value(rendered(&value))));
        self
    }

    /// Appends `"key": [rows]`: one row per line at the top level of a
    /// document, inline elsewhere.
    pub fn rows(mut self, key: &str, rows: impl IntoIterator<Item = Obj>) -> Self {
        let rows = rows.into_iter().map(|row| rendered(&row)).collect();
        self.fields.push((rendered(key), Field::Rows(rows)));
        self
    }

    /// The object as a trajectory point: one field per line, rows
    /// blocks at 4-space indent, and a trailing newline.
    fn document(&self) -> String {
        let mut out = String::new();
        self.render_as(&mut out, true);
        out
    }

    fn render_as(&self, out: &mut String, block: bool) {
        let (open, sep, close) = if block {
            ("{\n  ", ",\n  ", "\n}\n")
        } else {
            ("{", ", ", "}")
        };
        out.push_str(open);
        for (i, (key, field)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(key);
            out.push_str(": ");
            match field {
                Field::Value(text) => out.push_str(text),
                Field::Rows(rows) if block && !rows.is_empty() => {
                    out.push_str("[\n    ");
                    out.push_str(&rows.join(",\n    "));
                    out.push_str("\n  ]");
                }
                Field::Rows(rows) => {
                    out.push('[');
                    out.push_str(&rows.join(", "));
                    out.push(']');
                }
            }
        }
        out.push_str(close);
    }
}

impl Value for Obj {
    fn render(&self, out: &mut String) {
        self.render_as(out, false);
    }
}

fn rendered(value: &(impl Value + ?Sized)) -> String {
    let mut out = String::new();
    value.render(&mut out);
    out
}

/// Writes `doc` to `path` as a trajectory point. Reports success on
/// stdout; a failed write is reported on stderr and does not end the
/// run, whose tables and asserts have already done their work.
pub fn write(path: &str, doc: &Obj) {
    match std::fs::write(path, doc.document()) {
        Ok(()) => println!("Trajectory point written to {path}."),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline(value: impl Value) -> String {
        rendered(&value)
    }

    #[test]
    fn strings_escape_quotes_backslashes_newlines_and_controls() {
        assert_eq!(inline("plain"), "\"plain\"");
        assert_eq!(inline("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(inline("\t\u{1}"), "\"\\u0009\\u0001\"");
        assert_eq!(inline("µs ×"), "\"µs ×\"");
    }

    #[test]
    fn none_and_non_finite_floats_are_null() {
        assert_eq!(inline(None::<u64>), "null");
        assert_eq!(inline(Some(7u64)), "7");
        assert_eq!(inline(Fixed(f64::NAN, 3)), "null");
        assert_eq!(inline(Fixed(f64::INFINITY, 1)), "null");
        assert_eq!(inline(Fixed(f64::NEG_INFINITY, 0)), "null");
        assert_eq!(inline(None::<Fixed>), "null");
    }

    #[test]
    fn floats_take_their_fields_decimals() {
        let row = Obj::new()
            .field("a", Fixed(0.4, 0))
            .field("b", Fixed(1.0, 1))
            .field("c", Fixed(2.0 / 3.0, 3))
            .field("d", Fixed(1234.5678, 6));
        assert_eq!(
            inline(row),
            "{\"a\": 0, \"b\": 1.0, \"c\": 0.667, \"d\": 1234.567800}"
        );
    }

    #[test]
    fn rows_get_commas_between_and_none_after() {
        let doc = |n: u32| Obj::new().rows("r", (0..n).map(|i| Obj::new().field("i", i)));
        assert_eq!(doc(0).document(), "{\n  \"r\": []\n}\n");
        assert_eq!(doc(1).document(), "{\n  \"r\": [\n    {\"i\": 0}\n  ]\n}\n");
        assert_eq!(
            doc(3).document(),
            "{\n  \"r\": [\n    {\"i\": 0},\n    {\"i\": 1},\n    {\"i\": 2}\n  ]\n}\n"
        );
    }

    #[test]
    fn top_level_is_block_and_nested_is_inline() {
        let nested = Obj::new()
            .field("x", 1u32)
            .rows("rows", [Obj::new().field("y", true)])
            .field("list", [1u32, 2].as_slice());
        let doc = Obj::new()
            .field("name", "t")
            .field("nested", nested.clone())
            .field("metrics", Raw("{\"schema_version\":8}"))
            .rows("rows", [nested]);
        assert_eq!(
            doc.document(),
            "{\n  \"name\": \"t\",\n  \
             \"nested\": {\"x\": 1, \"rows\": [{\"y\": true}], \"list\": [1, 2]},\n  \
             \"metrics\": {\"schema_version\":8},\n  \
             \"rows\": [\n    {\"x\": 1, \"rows\": [{\"y\": true}], \"list\": [1, 2]}\n  ]\n}\n"
        );
        assert_eq!(inline(Obj::new()), "{}");
        assert_eq!(inline(<&[u32]>::default()), "[]");
    }

    #[test]
    fn committed_ota_row_rebuilds_byte_for_byte() {
        // The "tampered gated" row of the committed BENCH_ota.json.
        let committed = "{\"variant\": \"tampered gated\", \"tampered\": true, \"gated\": true, \
            \"targets\": 64, \"rollout_pct\": 10, \"updated\": 5, \"rejected\": 0, \
            \"compromised\": 5, \"rolled_back\": 5, \"quarantined\": 5, \
            \"halted_at_wave\": 1, \"halt_epoch\": 11, \"contained\": true, \
            \"waves_launched\": 1, \"wall_s\": 0.343}";
        let row = Obj::new()
            .field("variant", "tampered gated")
            .field("tampered", true)
            .field("gated", true)
            .field("targets", 64usize)
            .field("rollout_pct", 10u32)
            .field("updated", 5usize)
            .field("rejected", 0usize)
            .field("compromised", 5usize)
            .field("rolled_back", 5usize)
            .field("quarantined", 5usize)
            .field("halted_at_wave", Some(1usize))
            .field("halt_epoch", Some(11u64))
            .field("contained", true)
            .field("waves_launched", 1usize)
            .field("wall_s", Fixed(0.3431, 3));
        assert_eq!(inline(row), committed);
    }

    #[test]
    fn committed_engine_rows_rebuild_byte_for_byte() {
        // The 256-leaf "storm" row and the "acceptance" object of the
        // committed BENCH_engine.json, whose layout a smoke run cannot
        // reach on hosts that fail the storm pin.
        let storm = Obj::new()
            .field("leaves", 256usize)
            .field("events", 767_488u64)
            .field("wall_s", Fixed(0.142_71, 4))
            .field("events_per_sec", Fixed(5_377_251.3, 0))
            .field("vs_pinned", Some(Fixed(1.231_3, 3)));
        assert_eq!(
            inline(storm),
            "{\"leaves\": 256, \"events\": 767488, \"wall_s\": 0.1427, \
             \"events_per_sec\": 5377251, \"vs_pinned\": 1.231}"
        );
        let acceptance = Obj::new()
            .field("knn_graph_speedup_at_1k", Fixed(6.871, 2))
            .field("knn_required", Fixed(5.0, 1))
            .field("knn_epoch_speedup_at_1k", Fixed(6.249, 2))
            .field("knn_epoch_required", Fixed(5.0, 1))
            .field("churn_ratio_at_65536", Fixed(2.04, 3))
            .field("churn_required", Fixed(1.3, 2))
            .field("storm_vs_pinned", Fixed(1.2313, 3))
            .field("storm_required", Fixed(1.08, 2));
        assert_eq!(
            inline(acceptance),
            "{\"knn_graph_speedup_at_1k\": 6.87, \"knn_required\": 5.0, \
             \"knn_epoch_speedup_at_1k\": 6.25, \"knn_epoch_required\": 5.0, \
             \"churn_ratio_at_65536\": 2.040, \"churn_required\": 1.30, \
             \"storm_vs_pinned\": 1.231, \"storm_required\": 1.08}"
        );
    }
}
