//! In-memory spans, recorded from the benchmark's side of the calls into
//! each layer and written out once, at exit. Nothing under `crates/` is
//! instrumented; spans inside the program are a later change.

use std::time::Instant;

use util::json::{Json, JsonError};

/// One recorded interval. `parent` is the span that was open when this one
/// started; a layer's self time is its duration minus its children's.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its pass.
    pub id: u64,
    /// Enclosing span, `None` for the pass's root.
    pub parent: Option<u64>,
    /// `workload`, `arm.*`, `build`, `run`, `slice`, `collect`, `kernel.*`.
    pub name: String,
    /// Nanoseconds since the pass started.
    pub start_ns: u64,
    /// Nanoseconds since the pass started.
    pub end_ns: u64,
    /// Counts attached at the same boundary (e.g. `SimStats` deltas).
    pub counts: Vec<(String, u64)>,
}

impl Span {
    /// The span as a JSON object, tagged with the workload it belongs to.
    pub fn to_json(&self, workload: &str) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::Int(self.id as i64)),
            (
                "parent".into(),
                self.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ),
            ("workload".into(), Json::Str(workload.into())),
            ("name".into(), Json::Str(self.name.clone())),
            ("start_ns".into(), Json::Int(self.start_ns as i64)),
            ("end_ns".into(), Json::Int(self.end_ns as i64)),
            (
                "counts".into(),
                Json::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses what [`Span::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// Fails on a missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Span, JsonError> {
        let int = |key: &str| {
            v.field(key)?
                .as_u64()
                .ok_or_else(|| JsonError::new(format!("span field `{key}` is not an integer")))
        };
        let counts = match v.field("counts")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, c)| {
                    c.as_u64().map(|c| (k.clone(), c)).ok_or_else(|| {
                        JsonError::new(format!("span count `{k}` is not an integer"))
                    })
                })
                .collect::<Result<_, _>>()?,
            _ => return Err(JsonError::new("span counts is not an object")),
        };
        Ok(Span {
            id: int("id")?,
            parent: v.field("parent")?.as_u64(),
            name: v
                .field("name")?
                .as_str()
                .ok_or_else(|| JsonError::new("span name is not a string"))?
                .to_owned(),
            start_ns: int("start_ns")?,
            end_ns: int("end_ns")?,
            counts,
        })
    }
}

/// Records spans when on; costs one branch per boundary when off, so the
/// timed and traced passes run the same code.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores (`!on`) every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        value
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id as usize].counts.push((key.to_owned(), value));
        }
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}
