//! Front-end diagnostics, pinned to the exact text: `abcdd` forwards
//! `compile: {error}` to its clients, so the message and the `line:col`
//! of every error class are part of the service's observable behavior.

use abcd_frontend::compile;

/// `(source, expected error text)`, one row per error class.
const CASES: &[(&str, &str)] = &[
    // Lexical errors.
    (
        "fn f() { /* never closed",
        "lex error at 1:10: unterminated block comment",
    ),
    (
        "fn f() -> int {\n  return 99999999999999999999;\n}",
        "lex error at 2:10: integer literal `99999999999999999999` out of range",
    ),
    (
        "fn f() -> int { return 1 # 2; }",
        "lex error at 1:26: unexpected character `#`",
    ),
    (
        "fn main() -> int { let é: int = 1; return 2; }",
        "lex error at 1:24: unexpected character `é`",
    ),
    (
        "fn f() -> int { return 1 €",
        "lex error at 1:26: unexpected character `€`",
    ),
    // Syntax errors: expected/found.
    (
        "fn f() { let x: int = 1 }",
        "parse error at 1:25: expected Semi, found `RBrace`",
    ),
    (
        "fn f( { }",
        "parse error at 1:7: expected identifier, found `LBrace`",
    ),
    (
        "fn f(count: int) { let y: int = count + ; }",
        "parse error at 1:41: expected expression, found `Semi`",
    ),
    (
        "fn f() { let x: foo = 1; }",
        "parse error at 1:17: expected type, found `foo`",
    ),
    (
        "let x: int = 1;",
        "parse error at 1:1: expected Fn, found `Let`",
    ),
    (
        "fn f(a: int[]) -> int { return a.size; }",
        "parse error at 1:34: expected Length, found `size`",
    ),
    (
        "fn f() { let a: int[] = new foo[3]; }",
        "parse error at 1:29: expected element type after `new`, found `foo`",
    ),
    // Type and name-resolution errors.
    (
        "fn f() -> int { return missing; }",
        "type error at 1:24: unknown variable `missing`",
    ),
    (
        "fn f() { undefined = 1; }",
        "type error at 1:10: unknown variable `undefined`",
    ),
    (
        "fn f() -> int { return g(1); }",
        "type error at 1:24: unknown function `g`",
    ),
    (
        "fn f() {}\nfn g() {}\nfn f() {}",
        "type error at 3:1: duplicate function `f`",
    ),
    (
        "fn f(x: int, x: bool) {}",
        "type error at 1:1: duplicate parameter `x`",
    ),
    (
        "fn g(a: int, b: int) -> int { return a; }\nfn f() -> int { return g(1); }",
        "type error at 2:24: `g` expects 2 arguments, found 1",
    ),
    (
        "fn g() {}\nfn f() -> int { return g() + 1; }",
        "type error at 2:24: void function `g` used as a value",
    ),
    (
        "fn f() -> int[] { let x: int = 0; }",
        "type error at 1:1: function `f` returning int[] may fall off the end",
    ),
    (
        "fn f() { break; }",
        "type error at 1:10: `break` outside a loop",
    ),
    (
        "fn f() {\n    continue;\n}",
        "type error at 2:5: `continue` outside a loop",
    ),
    (
        "fn f() { let x: int = true; }",
        "type error at 1:10: initializer has type bool, expected int",
    ),
    (
        "fn f(a: int) -> int { return a[0]; }",
        "type error at 1:31: cannot index into int",
    ),
    (
        "fn g(a: int[]) {}\nfn f() { g(true); }",
        "type error at 2:12: call argument has type bool, expected int[]",
    ),
    (
        "fn f() -> int { return; }",
        "type error at 1:17: missing return value of type int",
    ),
    (
        "fn f() { 1 + 2; }",
        "type error at 1:10: only calls may be used as statements",
    ),
];

#[test]
fn every_error_class_reports_its_exact_text() {
    let mut mismatches = Vec::new();
    for (src, want) in CASES {
        match compile(src) {
            Ok(_) => mismatches.push(format!("{src:?}: compiled, expected `{want}`")),
            Err(e) if e.to_string() != *want => {
                mismatches.push(format!("{src:?}:\n  got  `{e}`\n  want `{want}`"))
            }
            Err(_) => {}
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn errors_carry_their_position() {
    let e = compile("fn f() {\n  let x: int = y;\n}").unwrap_err();
    assert_eq!((e.pos().line, e.pos().col), (2, 16));
}
