//! The one writer behind `BENCH_ntt_blas.json`: a value tree and its text.

pub enum Json {
    Bool(bool),
    Int(usize),
    /// A float with a fixed number of decimals, so it never reads back as an
    /// integer (CI tells counts from measurements by that).
    Num(f64, usize),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// The document's text: the document and its sections break a line per
    /// field and a section's array a line per row; rows and spread triples
    /// stay on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(&b.to_string()),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
            Json::Str(s) => out.push_str(&format!("{s:?}")),
            Json::Arr(items) => {
                let items = items.iter().map(|v| (None, v));
                Self::write_seq(out, depth, depth <= 2, ['[', ']'], items)
            }
            Json::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(*k), v));
                Self::write_seq(out, depth, depth <= 1, ['{', '}'], fields)
            }
        }
    }

    fn write_seq<'a>(
        out: &mut String,
        depth: usize,
        broken: bool,
        [open, close]: [char; 2],
        items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    ) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        };
        out.push(open);
        for (i, (key, value)) in items.enumerate() {
            if i > 0 {
                out.push(',');
            }
            if broken {
                newline(out, depth + 1);
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                out.push_str(&format!("{key:?}: "));
            }
            value.write(out, depth + 1);
        }
        if broken {
            newline(out, depth);
        }
        out.push(close);
    }
}
