//! The `proto.lock` manifest: the committed pin of every wire /
//! persistence schema (enum discriminant tables, struct field orders,
//! tuple arities).
//!
//! The WAL and snapshot files on every head's disk were written by
//! *earlier builds*. Any schema change — a reordered field, a renumbered
//! tag — silently corrupts recovery, so W002 makes drift against the
//! committed manifest a hard error. The lifecycle is:
//!
//! 1. `cargo run -p jrs-lint -- check` compares source against
//!    `proto.lock`; any difference is a W002 finding with a precise
//!    diff.
//! 2. After a *deliberate*, migration-reviewed schema change, regenerate
//!    with `cargo run -p jrs-lint -- lock > proto.lock` and commit the
//!    new manifest alongside the code — the diff in review is the
//!    schema change.

use crate::codec::{ProtoModel, Shape};
use std::collections::BTreeMap;

/// The pinnable schema read from the `codec!` declarations (or parsed
/// from a `proto.lock` file).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Schema {
    /// Enum codecs: type -> `(variant, tag)` sorted by tag.
    pub enums: BTreeMap<String, Vec<(String, u64)>>,
    /// Struct codecs: type -> field names in encode order.
    pub structs: BTreeMap<String, Vec<String>>,
    /// Tuple codecs: type -> positional arity.
    pub tuples: BTreeMap<String, usize>,
}

impl Schema {
    /// The schema the `codec!` declarations pin. Hand-written codecs
    /// (the foundation layer's generic containers and the audited list)
    /// have no per-type field list and are not pinned.
    pub fn from_model(model: &ProtoModel) -> Schema {
        let mut s = Schema::default();
        for (_, name, shape) in model.shapes() {
            let name = name.to_string();
            match shape {
                Shape::Enum(variants) => {
                    let mut table = variants.clone();
                    table.sort_by_key(|(_, t)| *t);
                    s.enums.insert(name, table);
                }
                Shape::Struct(fields) => {
                    s.structs.insert(name, fields.clone());
                }
                Shape::Tuple(n) => {
                    s.tuples.insert(name, *n);
                }
            }
        }
        s
    }

    /// Render as the committed `proto.lock` text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# proto.lock — pinned wire/persistence schema (jrs-lint W002).\n\
             # On-disk WAL and snapshot data was written by earlier builds; any\n\
             # drift from this manifest is a hard error. After a deliberate,\n\
             # migration-reviewed schema change, regenerate with\n\
             #   cargo run -p jrs-lint -- lock > proto.lock\n\
             # and commit the new manifest alongside the code change.\n\n",
        );
        for (name, table) in &self.enums {
            out.push_str(&format!("enum {name} {{\n"));
            for (v, t) in table {
                out.push_str(&format!("  {v} = {t}\n"));
            }
            out.push_str("}\n");
        }
        for (name, fields) in &self.structs {
            out.push_str(&format!("struct {name} {{ {} }}\n", fields.join(", ")));
        }
        for (name, arity) in &self.tuples {
            out.push_str(&format!("tuple {name}({arity})\n"));
        }
        out
    }

    /// Parse a committed `proto.lock`.
    pub(crate) fn parse(text: &str) -> Result<Schema, String> {
        let mut s = Schema::default();
        let mut cur_enum: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let err = |m: &str| format!("proto.lock:{}: {m}", i + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("enum ") {
                let name = rest.trim_end_matches('{').trim();
                if name.is_empty() {
                    return Err(err("empty enum name"));
                }
                s.enums.insert(name.to_string(), Vec::new());
                cur_enum = Some(name.to_string());
            } else if let Some(rest) = line.strip_prefix("struct ") {
                let (name, body) = rest
                    .split_once('{')
                    .ok_or_else(|| err("struct needs { .. }"))?;
                let body = body.trim_end_matches('}').trim();
                let fields: Vec<String> = if body.is_empty() {
                    Vec::new()
                } else {
                    body.split(',').map(|f| f.trim().to_string()).collect()
                };
                s.structs.insert(name.trim().to_string(), fields);
                cur_enum = None;
            } else if let Some(rest) = line.strip_prefix("tuple ") {
                let (name, arity) = rest.split_once('(').ok_or_else(|| err("tuple needs (N)"))?;
                let arity: usize = arity
                    .trim_end_matches(')')
                    .trim()
                    .parse()
                    .map_err(|_| err("bad tuple arity"))?;
                s.tuples.insert(name.trim().to_string(), arity);
                cur_enum = None;
            } else if line == "}" {
                cur_enum = None;
            } else if let Some(name) = &cur_enum {
                let (v, t) = line
                    .split_once('=')
                    .ok_or_else(|| err("expected `Variant = tag`"))?;
                let tag: u64 = t.trim().parse().map_err(|_| err("bad discriminant"))?;
                if let Some(table) = s.enums.get_mut(name) {
                    table.push((v.trim().to_string(), tag));
                }
            } else {
                return Err(err("unrecognized line"));
            }
        }
        for table in s.enums.values_mut() {
            table.sort_by_key(|(_, t)| *t);
        }
        Ok(s)
    }

    /// Precise drift diffs: `(type name, message)` per divergence.
    pub(crate) fn diff(pinned: &Schema, current: &Schema) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (name, cur) in &current.enums {
            match pinned.enums.get(name) {
                None => out.push((
                    name.clone(),
                    format!(
                        "enum codec `{name}` is not pinned in proto.lock (new wire \
                         schema) — review migration impact, then regenerate the lock"
                    ),
                )),
                Some(pin) => {
                    for (v, t) in cur {
                        match pin.iter().find(|(pv, _)| pv == v) {
                            None => out.push((
                                name.clone(),
                                format!(
                                    "enum `{name}`: variant `{v}` (tag {t}) is not \
                                     pinned — new variants must be appended and the \
                                     lock regenerated"
                                ),
                            )),
                            Some((_, pt)) if pt != t => out.push((
                                name.clone(),
                                format!(
                                    "enum `{name}`: variant `{v}` tag changed \
                                     {pt} -> {t} — WAL/snapshot records written by \
                                     earlier builds become unreadable"
                                ),
                            )),
                            _ => {}
                        }
                    }
                    for (v, t) in pin {
                        if !cur.iter().any(|(cv, _)| cv == v) {
                            out.push((
                                name.clone(),
                                format!(
                                    "enum `{name}`: pinned variant `{v}` (tag {t}) \
                                     no longer exists in the codec"
                                ),
                            ));
                        }
                    }
                }
            }
        }
        for (name, pin) in &pinned.enums {
            if !current.enums.contains_key(name) {
                out.push((
                    name.clone(),
                    format!("pinned enum codec `{name}` no longer exists ({pin:?})"),
                ));
            }
        }
        for (name, cur) in &current.structs {
            match pinned.structs.get(name) {
                None => out.push((
                    name.clone(),
                    format!("struct codec `{name}` is not pinned in proto.lock"),
                )),
                Some(pin) if pin != cur => out.push((
                    name.clone(),
                    format!(
                        "struct `{name}`: field order changed [{}] -> [{}] — \
                         persisted records decode fields positionally",
                        pin.join(", "),
                        cur.join(", ")
                    ),
                )),
                _ => {}
            }
        }
        for name in pinned.structs.keys() {
            if !current.structs.contains_key(name) {
                out.push((
                    name.clone(),
                    format!("pinned struct codec `{name}` no longer exists"),
                ));
            }
        }
        for (name, cur) in &current.tuples {
            match pinned.tuples.get(name) {
                None => out.push((
                    name.clone(),
                    format!("tuple codec `{name}` is not pinned in proto.lock"),
                )),
                Some(pin) if pin != cur => out.push((
                    name.clone(),
                    format!("tuple `{name}`: arity changed {pin} -> {cur}"),
                )),
                _ => {}
            }
        }
        for name in pinned.tuples.keys() {
            if !current.tuples.contains_key(name) {
                out.push((
                    name.clone(),
                    format!("pinned tuple codec `{name}` no longer exists"),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        let mut s = Schema::default();
        s.enums.insert(
            "Payload".into(),
            vec![("Client".into(), 0), ("Output".into(), 1)],
        );
        s.structs
            .insert("Grant".into(), vec!["mom".into(), "session".into()]);
        s.tuples.insert("JobId".into(), 1);
        s
    }

    #[test]
    fn render_parse_round_trip() {
        let s = sample();
        let text = s.render();
        let back = Schema::parse(&text).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn drift_is_precise() {
        let pinned = sample();
        let mut cur = sample();
        // Renumber a tag, reorder a struct, drop the tuple.
        cur.enums.get_mut("Payload").unwrap()[1] = ("Output".into(), 2);
        cur.structs
            .insert("Grant".into(), vec!["session".into(), "mom".into()]);
        cur.tuples.clear();
        let diffs = Schema::diff(&pinned, &cur);
        let msgs: Vec<&str> = diffs.iter().map(|(_, m)| m.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("tag changed 1 -> 2")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("[mom, session] -> [session, mom]")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("tuple codec `JobId` no longer exists")),
            "{msgs:?}"
        );
    }

    #[test]
    fn unparseable_lock_is_an_error() {
        assert!(Schema::parse("what is this").is_err());
        assert!(Schema::parse("enum X {\n  Variant = pizza\n}").is_err());
    }
}
