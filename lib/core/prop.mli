(** The single property parser.

    SCTC accepts properties in FLTL or the PSL foundation-language
    subset. One recursive descent over the {!Fltl_lexer} token stream
    serves both; it is what {!Checker.add_property_text},
    [Verif.Session], the [tcheck] CLI and the examples parse through.
    The two syntaxes share every level except [untiled] and [unary].

    FLTL, lowest to highest precedence:
    {v
      formula  := implied ( ('<->' | 'iff') implied )*
      implied  := ored ( ('->' | 'implies') implied )?   (right associative)
      ored     := anded ( ('|' | '||' | 'or') anded )*
      anded    := untiled ( ('&' | '&&' | 'and') untiled )*
      untiled  := unary ( ('U' | 'until' | 'R' | 'release') bound? untiled )?
      unary    := ('!' | 'not') unary
                | 'X' unary
                | ('F' | 'G') bound? unary
                | atom
      atom     := 'true' | 'false' | IDENT | '(' formula ')'
      bound    := '[' INT ']'
    v}
    The paper's sample property "F (Read -> F[b] (EEE_OK | ...))" parses
    with this grammar.

    PSL maps its FL operators onto the FLTL core:
    {v
      always p                     ==> G p
      never p                      ==> G !p
      eventually p, eventually! p  ==> F p
      next p, next! p              ==> X p
      next[n] p, next![n] p        ==> X^n p
      p until! q                   ==> p U q        (strong)
      p until q                    ==> q R (p | q)  (weak until)
      p release q                  ==> p R q
      not/and/or/implies/iff and the symbol forms
    v}
    SEREs (sequence expressions) are out of scope: the paper's property
    set uses only the FL subset above.

    Syntax selection:
    - [`Fltl] / [`Psl]: that grammar only ([X F G U R] are not PSL,
      [always never eventually next] are not FLTL).
    - [`Auto] (the default): PSL when a PSL-only keyword ([always],
      [never], [eventually], [next]) appears in the token stream,
      FLTL otherwise. [until]/[release] appear in both grammars (FLTL
      reads them as the strong [U]/[R], PSL's bare [until] is weak), so
      they deliberately do {e not} flip detection — bare-word texts
      keep their historical FLTL meaning. The text is tokenized once. *)

type syntax = [ `Fltl | `Psl | `Auto ]

type error = {
  line : int;
  col : int;  (** 1-based position of the offending token *)
  message : string;
  input : string;  (** the property text as given *)
}

exception Parse_error of error

val parse : ?syntax:syntax -> string -> (Formula.t, error) result
(** Parse a property ([syntax] defaults to [`Auto]). Never raises. *)

val parse_exn : ?syntax:syntax -> string -> Formula.t
(** @raise Parse_error on malformed input. *)

val detect_syntax : string -> [ `Fltl | `Psl ]
(** The syntax [`Auto] would pick. Texts that do not tokenize are
    reported as [`Fltl] (the error surfaces at parse time). *)

val error_to_string : error -> string
(** ["LINE:COL: MESSAGE in \"INPUT\""]. *)

val pp_error : Format.formatter -> error -> unit
