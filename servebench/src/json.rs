//! A small JSON reader for the gateway's responses and a writer for the
//! benchmark's own output. The load generator parses answers with its own
//! code, so a change to the gateway's codec moves only the server side.

use std::fmt::Write as _;

use kosr_core::Witness;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn arr(&self) -> &[Value] {
        match self {
            Value::Arr(a) => a,
            _ => &[],
        }
    }
}

pub fn parse(bytes: &[u8]) -> Option<Value> {
    let mut p = Parser { b: bytes, i: 0 };
    let v = p.value(0)?;
    p.ws();
    (p.i == bytes.len()).then_some(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        (self.b.get(self.i) == Some(&c)).then(|| self.i += 1)
    }

    fn lit(&mut self, word: &str, v: Value) -> Option<Value> {
        self.b[self.i..].starts_with(word.as_bytes()).then(|| {
            self.i += word.len();
            v
        })
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        if depth > 32 {
            return None;
        }
        self.ws();
        match *self.b.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut m = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Value::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    m.push((k, self.value(depth + 1)?));
                    if self.eat(b',').is_none() {
                        self.eat(b'}')?;
                        return Some(Value::Obj(m));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Value::Arr(a));
                }
                loop {
                    a.push(self.value(depth + 1)?);
                    if self.eat(b',').is_none() {
                        self.eat(b']')?;
                        return Some(Value::Arr(a));
                    }
                }
            }
            b'"' => self.string().map(Value::Str),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            b'n' => self.lit("null", Value::Null),
            _ => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()?
                    .parse()
                    .ok()
                    .map(Value::Num)
            }
        }
    }

    /// Steps over one value without building it.
    fn skip(&mut self) -> Option<()> {
        let mut depth = 0usize;
        loop {
            match *self.b.get(self.i)? {
                b'"' => {
                    self.string()?;
                    continue;
                }
                b'[' | b'{' => depth += 1,
                b']' | b'}' if depth == 0 => return Some(()),
                b']' | b'}' => depth -= 1,
                b',' if depth == 0 => return Some(()),
                _ => {}
            }
            self.i += 1;
        }
    }

    fn uint(&mut self) -> Option<u64> {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    /// A string without escapes beyond `\"` and `\\` (all the gateway's
    /// answers need).
    fn string(&mut self) -> Option<String> {
        if self.b.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match *self.b.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    out.push(*self.b.get(self.i + 1)?);
                    self.i += 2;
                }
                c => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

/// A route list reduced to what correctness compares: the count and a
/// digest of every route's cost and vertex tuple, in rank order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Answer {
    pub routes: u32,
    pub digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, x: u64) -> u64 {
    x.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

impl Answer {
    fn new() -> Answer {
        Answer {
            routes: 0,
            digest: FNV_OFFSET,
        }
    }

    fn push(&mut self, cost: u64, vertices: &[u64]) {
        self.routes += 1;
        self.digest = fnv(self.digest, cost);
        self.digest = fnv(self.digest, vertices.len() as u64);
        for &v in vertices {
            self.digest = fnv(self.digest, v);
        }
    }

    pub fn of_witnesses(ws: &[Witness]) -> Answer {
        let mut a = Answer::new();
        for w in ws {
            let vertices: Vec<u64> = w.vertices.iter().map(|v| v.0 as u64).collect();
            a.push(w.cost, &vertices);
        }
        a
    }

    /// The answer carried by a JSON route array (`[{cost, vertices, …}]`).
    pub fn of_json_routes(routes: &[Value]) -> Option<Answer> {
        let mut a = Answer::new();
        for r in routes {
            let vertices = r
                .get("vertices")?
                .arr()
                .iter()
                .map(|v| v.num().map(|n| n as u64))
                .collect::<Option<Vec<u64>>>()?;
            a.push(r.get("cost")?.num()? as u64, &vertices);
        }
        Some(a)
    }

    /// The answer of a `/v1/route` response body, read in one pass without
    /// building a tree (the load generator reads every response): the
    /// `cost` and `vertices` of each object in `routes`.
    pub fn of_route_body(body: &[u8]) -> Option<Answer> {
        const KEY: &[u8] = b"\"routes\":";
        let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
        let mut p = Parser { b: body, i: at };
        let mut a = Answer::new();
        p.eat(b'[')?;
        if p.eat(b']').is_some() {
            return Some(a);
        }
        loop {
            p.eat(b'{')?;
            let (mut cost, mut vertices) = (None, Vec::new());
            loop {
                p.ws();
                let key = p.string()?;
                p.eat(b':')?;
                p.ws();
                match key.as_str() {
                    "cost" => cost = Some(p.uint()?),
                    "vertices" => {
                        p.eat(b'[')?;
                        while p.eat(b']').is_none() {
                            p.eat(b',');
                            p.ws();
                            vertices.push(p.uint()?);
                        }
                    }
                    _ => p.skip()?,
                }
                if p.eat(b',').is_none() {
                    p.eat(b'}')?;
                    break;
                }
            }
            a.push(cost?, &vertices);
            if p.eat(b',').is_none() {
                p.eat(b']')?;
                return Some(a);
            }
        }
    }
}

/// Writes `{"k": v, …}` for the result line; values keep all their digits.
pub fn object(fields: &[(String, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{}: {}", quote(k), v);
    }
    s.push('}');
    s
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become `0`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_graph::VertexId;

    #[test]
    fn parses_gateway_shapes() {
        let body = br#"{"k":2,"routes":[{"cost":7,"vertices":[0,3,5],"stops":[{"vertex":3,"category":1}]},{"cost":9,"vertices":[0,4,5],"stops":[]}],"shards":[0,1],"latency_us":12}"#;
        let a = Answer::of_route_body(body).expect("parses");
        let w = |cost, vs: &[u32]| Witness {
            cost,
            vertices: vs.iter().copied().map(VertexId).collect(),
        };
        assert_eq!(
            a,
            Answer::of_witnesses(&[w(7, &[0, 3, 5]), w(9, &[0, 4, 5])])
        );
        assert_ne!(
            a,
            Answer::of_witnesses(&[w(7, &[0, 3, 5]), w(9, &[0, 5, 4])])
        );
        // The one-pass reader agrees with the tree.
        let tree = parse(body).unwrap();
        assert_eq!(
            Answer::of_json_routes(tree.get("routes").unwrap().arr()),
            Some(a)
        );
        assert_eq!(
            Answer::of_route_body(br#"{"k":1,"routes":[],"shards":[]}"#),
            Some(Answer::of_witnesses(&[]))
        );
        assert_eq!(
            Answer::of_route_body(br#"{"k":1,"routes":[{"cost":1}"#),
            None
        );
        assert_eq!(Answer::of_route_body(br#"{"error":"x"}"#), None);
        let v = parse(br#" {"a": [true, null, -1.5e1, "x\"y"]} "#).expect("parses");
        assert_eq!(
            v.get("a"),
            Some(&Value::Arr(vec![
                Value::Bool(true),
                Value::Null,
                Value::Num(-15.0),
                Value::Str("x\"y".into())
            ]))
        );
        assert!(parse(b"{\"a\":1} x").is_none());
        assert!(parse(b"[1,").is_none());
    }
}
