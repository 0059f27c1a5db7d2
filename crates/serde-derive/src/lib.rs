//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the in-tree serde
//! shim, written directly against `proc_macro` (this workspace builds
//! offline, so `syn`/`quote` are unavailable).
//!
//! Supported shapes — exactly what the workspace uses:
//!
//! * structs with named fields (including private fields);
//! * enums whose variants are unit (`Greedy`) or struct-like
//!   (`Windowed { window: u32 }`), encoded externally tagged the
//!   way serde does: `"Greedy"` / `{"Windowed": {"window": 7}}`;
//! * the field attribute `#[serde(default)]`.
//!
//! Anything else (tuple structs/variants, generics, other attributes)
//! produces a compile error naming the limitation.
//!
//! Generated impls live in `const _: () = { extern crate serde as _serde; … }`
//! so they resolve the *consumer's* `serde` dependency (the alias for
//! `tpftl-serde`) without polluting its namespace.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (the shim's `to_json`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Serialize)
}

/// Derives `serde::Deserialize` (the shim's `from_json`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Which::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Which {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, which: Which) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => {
            return format!("::core::compile_error!({msg:?});")
                .parse()
                .expect("compile_error literal parses");
        }
    };
    let body = match (&item.shape, which) {
        (Shape::Struct(fields), Which::Serialize) => struct_serialize(&item.name, fields),
        (Shape::Struct(fields), Which::Deserialize) => struct_deserialize(&item.name, fields),
        (Shape::Newtype, Which::Serialize) => newtype_serialize(&item.name),
        (Shape::Newtype, Which::Deserialize) => newtype_deserialize(&item.name),
        (Shape::Enum(variants), Which::Serialize) => enum_serialize(&item.name, variants),
        (Shape::Enum(variants), Which::Deserialize) => enum_deserialize(&item.name, variants),
    };
    let code = format!("const _: () = {{\n    extern crate serde as _serde;\n{body}\n}};");
    code.parse()
        .unwrap_or_else(|e| panic!("generated code failed to parse: {e}\n{code}"))
}

// ---- item model --------------------------------------------------------------

struct Field {
    name: String,
    /// `#[serde(default)]`: absent keys deserialize via `Default::default()`.
    default: bool,
}

struct Variant {
    name: String,
    /// `None` for a unit variant, `Some(fields)` for a struct variant.
    fields: Option<Vec<Field>>,
}

enum Shape {
    Struct(Vec<Field>),
    /// Single-field tuple struct: serializes transparently as its inner
    /// value, matching serde's newtype behavior.
    Newtype,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    shape: Shape,
}

// ---- parsing -----------------------------------------------------------------

/// Attribute info we care about while skipping attribute tokens.
#[derive(Default)]
struct AttrInfo {
    serde_default: bool,
}

/// Skips `#[...]` / `#![...]` runs starting at `i`; returns the index after
/// them and whether `#[serde(default)]` was among them.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> (usize, AttrInfo) {
    let mut info = AttrInfo::default();
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                i += 1;
                // Inner attribute `#!` (doc comments on modules) — skip `!`.
                if let Some(TokenTree::Punct(p2)) = tokens.get(i) {
                    if p2.as_char() == '!' {
                        i += 1;
                    }
                }
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if attr_is_serde_default(&g.stream()) {
                        info.serde_default = true;
                    }
                    i += 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    (i, info)
}

fn attr_is_serde_default(stream: &TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.clone().into_iter().collect();
    match tokens.as_slice() {
        [TokenTree::Ident(name), TokenTree::Group(args)] if name.to_string() == "serde" => args
            .stream()
            .into_iter()
            .any(|t| matches!(&t, TokenTree::Ident(i) if i.to_string() == "default")),
        _ => false,
    }
}

/// Skips a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (mut i, _) = skip_attrs(&tokens, 0);
    i = skip_vis(&tokens, i);

    let kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("derive(Serialize/Deserialize): expected `struct` or `enum`".into()),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("derive(Serialize/Deserialize): expected a type name".into()),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "derive(Serialize/Deserialize) on `{name}`: generic types are not \
                 supported by the in-tree shim"
            ));
        }
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && kw == "struct" => {
            if count_tuple_fields(g.stream()) != 1 {
                return Err(format!(
                    "derive(Serialize/Deserialize) on `{name}`: tuple structs are \
                     only supported as single-field newtypes"
                ));
            }
            return Ok(Item {
                name,
                shape: Shape::Newtype,
            });
        }
        _ => {
            return Err(format!(
                "derive(Serialize/Deserialize) on `{name}`: only brace-bodied \
                 structs/enums (or newtype structs) are supported"
            ))
        }
    };

    let shape = match kw.as_str() {
        "struct" => Shape::Struct(parse_fields(body, &name)?),
        "enum" => Shape::Enum(parse_variants(body, &name)?),
        other => {
            return Err(format!(
                "derive(Serialize/Deserialize): expected `struct` or `enum`, found `{other}`"
            ))
        }
    };
    Ok(Item { name, shape })
}

/// Number of top-level comma-separated fields in a tuple-struct body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut fields = 0usize;
    let mut saw_token = false;
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                saw_token = false;
                continue;
            }
            _ => {}
        }
        saw_token = true;
    }
    fields + usize::from(saw_token)
}

/// Parses `name: Type, ...` out of a struct (or struct-variant) body.
fn parse_fields(stream: TokenStream, ty: &str) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (j, info) = skip_attrs(&tokens, i);
        i = skip_vis(&tokens, j);
        let fname = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => {
                return Err(format!(
                    "derive on `{ty}`: expected a field name, found `{other}` \
                     (tuple fields are not supported)"
                ))
            }
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("derive on `{ty}`: expected `:` after `{fname}`")),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while let Some(t) = tokens.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        if tokens.get(i).is_some() {
            i += 1; // the comma
        }
        fields.push(Field {
            name: fname,
            default: info.serde_default,
        });
    }
    Ok(fields)
}

/// Parses `Unit, Struct { .. }, ...` out of an enum body.
fn parse_variants(stream: TokenStream, ty: &str) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (j, _) = skip_attrs(&tokens, i);
        i = j;
        let vname = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(other) => {
                return Err(format!(
                    "derive on `{ty}`: expected a variant name, found `{other}`"
                ))
            }
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_fields(g.stream(), ty)?;
                i += 1;
                Some(f)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(format!(
                    "derive on `{ty}`: tuple variant `{vname}` is not supported by \
                     the in-tree shim"
                ))
            }
            _ => None,
        };
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            Some(other) => {
                return Err(format!(
                    "derive on `{ty}`: unexpected `{other}` after variant `{vname}` \
                     (discriminants are not supported)"
                ))
            }
        }
        variants.push(Variant {
            name: vname,
            fields,
        });
    }
    Ok(variants)
}

// ---- code generation ---------------------------------------------------------

/// `__obj.push(("f", _serde::Serialize::to_json(<expr>)));` lines.
fn push_fields(out: &mut String, fields: &[Field], expr: impl Fn(&str) -> String) {
    for f in fields {
        out.push_str(&format!(
            "            __obj.push(({:?}.to_string(), _serde::Serialize::to_json(&{})));\n",
            f.name,
            expr(&f.name)
        ));
    }
}

/// `f: match __v.get("f") {{ ... }},` initializer lines.
fn field_initializers(out: &mut String, ty: &str, fields: &[Field]) {
    for f in fields {
        let missing = if f.default {
            "::core::default::Default::default()".to_string()
        } else {
            format!(
                "return ::core::result::Result::Err(_serde::Error::missing_field({:?}, {ty:?}))",
                f.name
            )
        };
        out.push_str(&format!(
            "                {name}: match __v.get({name:?}) {{\n\
             \x20                   ::core::option::Option::Some(__x) => _serde::Deserialize::from_json(__x)?,\n\
             \x20                   ::core::option::Option::None => {missing},\n\
             \x20               }},\n",
            name = f.name,
        ));
    }
}

fn struct_serialize(name: &str, fields: &[Field]) -> String {
    let mut body = String::new();
    push_fields(&mut body, fields, |f| format!("self.{f}"));
    format!(
        "    impl _serde::Serialize for {name} {{\n\
         \x20       fn to_json(&self) -> _serde::Value {{\n\
         \x20           let mut __obj: ::std::vec::Vec<(::std::string::String, _serde::Value)> = ::std::vec::Vec::new();\n\
         {body}\
         \x20           _serde::Value::Object(__obj)\n\
         \x20       }}\n\
         \x20   }}"
    )
}

fn struct_deserialize(name: &str, fields: &[Field]) -> String {
    let mut inits = String::new();
    field_initializers(&mut inits, name, fields);
    format!(
        "    impl _serde::Deserialize for {name} {{\n\
         \x20       fn from_json(__v: &_serde::Value) -> ::core::result::Result<Self, _serde::Error> {{\n\
         \x20           if !__v.is_object() {{\n\
         \x20               return ::core::result::Result::Err(_serde::Error::expected(\"an object\", __v));\n\
         \x20           }}\n\
         \x20           ::core::result::Result::Ok({name} {{\n\
         {inits}\
         \x20           }})\n\
         \x20       }}\n\
         \x20   }}"
    )
}

fn newtype_serialize(name: &str) -> String {
    format!(
        "    impl _serde::Serialize for {name} {{\n\
         \x20       fn to_json(&self) -> _serde::Value {{\n\
         \x20           _serde::Serialize::to_json(&self.0)\n\
         \x20       }}\n\
         \x20   }}"
    )
}

fn newtype_deserialize(name: &str) -> String {
    format!(
        "    impl _serde::Deserialize for {name} {{\n\
         \x20       fn from_json(__v: &_serde::Value) -> ::core::result::Result<Self, _serde::Error> {{\n\
         \x20           ::core::result::Result::Ok({name}(_serde::Deserialize::from_json(__v)?))\n\
         \x20       }}\n\
         \x20   }}"
    )
}

fn enum_serialize(name: &str, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for v in variants {
        match &v.fields {
            None => arms.push_str(&format!(
                "                {name}::{v} => _serde::Value::Str({v:?}.to_string()),\n",
                v = v.name
            )),
            Some(fields) => {
                let bindings: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                let mut pushes = String::new();
                push_fields(&mut pushes, fields, |f| f.to_string());
                arms.push_str(&format!(
                    "                {name}::{v} {{ {binds} }} => {{\n\
                     \x20                   let mut __obj: ::std::vec::Vec<(::std::string::String, _serde::Value)> = ::std::vec::Vec::new();\n\
                     {pushes}\
                     \x20                   _serde::Value::Object(::std::vec![({v:?}.to_string(), _serde::Value::Object(__obj))])\n\
                     \x20               }}\n",
                    v = v.name,
                    binds = bindings.join(", "),
                ));
            }
        }
    }
    format!(
        "    impl _serde::Serialize for {name} {{\n\
         \x20       fn to_json(&self) -> _serde::Value {{\n\
         \x20           match self {{\n\
         {arms}\
         \x20           }}\n\
         \x20       }}\n\
         \x20   }}"
    )
}

fn enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for v in variants {
        match &v.fields {
            None => unit_arms.push_str(&format!(
                "                    {v:?} => ::core::result::Result::Ok({name}::{v}),\n",
                v = v.name
            )),
            Some(fields) => {
                let mut inits = String::new();
                field_initializers(&mut inits, name, fields);
                // Struct-variant field lookups read from the inner object.
                let inits = inits.replace("__v.get(", "__inner.get(");
                tagged_arms.push_str(&format!(
                    "                    {v:?} => ::core::result::Result::Ok({name}::{v} {{\n\
                     {inits}\
                     \x20                   }}),\n",
                    v = v.name,
                ));
            }
        }
    }
    format!(
        "    impl _serde::Deserialize for {name} {{\n\
         \x20       fn from_json(__v: &_serde::Value) -> ::core::result::Result<Self, _serde::Error> {{\n\
         \x20           match __v {{\n\
         \x20               _serde::Value::Str(__s) => match __s.as_str() {{\n\
         {unit_arms}\
         \x20                   __other => ::core::result::Result::Err(_serde::Error::custom(\n\
         \x20                       ::std::format!(\"unknown {name} variant `{{__other}}`\"))),\n\
         \x20               }},\n\
         \x20               _serde::Value::Object(__entries) if __entries.len() == 1 => {{\n\
         \x20                   let (__tag, __inner) = &__entries[0];\n\
         \x20                   match __tag.as_str() {{\n\
         {tagged_arms}\
         \x20                       __other => ::core::result::Result::Err(_serde::Error::custom(\n\
         \x20                           ::std::format!(\"unknown {name} variant `{{__other}}`\"))),\n\
         \x20                   }}\n\
         \x20               }}\n\
         \x20               __other => ::core::result::Result::Err(_serde::Error::expected(\n\
         \x20                   \"a variant string or single-key object\", __other)),\n\
         \x20           }}\n\
         \x20       }}\n\
         \x20   }}"
    )
}
