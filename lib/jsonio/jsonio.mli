(** Minimal JSON emission, parsing and strict decoding (no
    dependencies).

    Used to export derived presets, experiment records, the provenance
    ledger, classified-shard artifacts, run manifests, the run-store
    index and lint reports in a form other tools can consume, and to
    read them back through the one strict decoder {!Decode}.  Numbers
    are printed with [%.17g] so a round-trip through {!of_string} (or
    any standards-compliant parser) preserves doubles exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Pretty-printed with [indent] spaces per level (default 2);
    strings are escaped per RFC 8259.  Non-finite numbers are emitted
    as [null] (JSON has no representation for them). *)

val to_string_compact : t -> string
(** Single-line rendering (no whitespace) — for line-oriented logs
    like the benchmark trajectory (JSONL).  Parses back with
    {!of_string} exactly like the pretty form. *)

val escape_string : string -> string
(** The quoted, escaped form of a string (exposed for tests). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document.  [Error msg] carries the byte
    offset of the first problem.  Duplicate object keys are kept in
    order ({!member} returns the first). *)

(** {1 Accessors}

    Structure-walking helpers for parsed documents; {!Decode} builds
    its typed readers on them. *)

val member : string -> t -> t option
(** Field lookup; [None] for missing fields and non-objects. *)

val fnum : float -> t
(** Non-finite-safe number encoding: finite floats become {!Num},
    non-finite ones the tagged strings ["nan"] / ["inf"] / ["-inf"],
    so evidence values round-trip losslessly (JSON itself has no
    representation for them).  Decode with {!fnum_opt}. *)

val fnum_opt : t -> float option
(** Inverse of {!fnum}: accepts {!Num} and the three tagged strings;
    [None] for anything else. *)

val to_float_opt : t -> float option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

(** {1 Strict decoding}

    The one decoder behind every versioned document this project reads
    back: [Core.Stage.shard_of_json], [Provenance.Ledger.of_json],
    [Obs.Manifest.of_json], [Obs.Store.open_store],
    [Check.report_of_json] and [Core.Diagnostic.of_json].  A missing or
    mistyped field is an error naming the field, so documents from
    drifted builds or hand edits fail loudly instead of decoding to
    something the file does not say.

    Every field reader takes [ctx name json]: [ctx] names the record
    being decoded and prefixes every message, [name] is the field and
    [json] the object holding it.  The messages are
    ["<ctx>: missing field \"<name>\""] and
    ["<ctx>: field \"<name>\" is not <a type>"]. *)
module Decode : sig
  val ( let* ) :
    ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

  val map_result :
    ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
  (** Apply in order; stop at the first error. *)

  val to_int_opt : t -> int option
  (** [Some n] for a {!Num} holding an integral value with
      |v| ≤ 2{^53}; [None] for anything else — fractions, larger
      magnitudes (which [int_of_float] would wrap) and non-numbers. *)

  val field : string -> string -> t -> (t, string) result
  (** The raw field value. *)

  val fnum : string -> string -> t -> (float, string) result
  (** A number, or one of the non-finite tags of {!fnum}. *)

  val num : string -> string -> t -> (float, string) result
  (** A plain {!Num}; the non-finite tags are rejected. *)

  val int : string -> string -> t -> (int, string) result
  (** A number {!to_int_opt} accepts; anything else "is not an
      integer". *)

  val str : string -> string -> t -> (string, string) result
  val bool : string -> string -> t -> (bool, string) result
  val list : string -> string -> t -> (t list, string) result
  val list_of :
    (t -> 'a option) -> bad:string -> string -> string -> t ->
    ('a list, string) result
  (** [list_of conv ~bad ctx name json]: a list whose every element
      [conv] accepts; the first it rejects is ["<ctx>: <bad>"]. *)

  val obj : string -> string -> t -> ((string * t) list, string) result

  val float_table :
    string -> string -> t -> ((string * float) list, string) result
  (** An object whose values are numbers or non-finite tags, in
      document order; a bad value is ["<ctx>: <name>.<key> is not a
      number"]. *)

  val string_table :
    string -> string -> t -> ((string * string) list, string) result
  (** An object whose values are strings, in document order. *)

  val nullable :
    (string -> string -> t -> ('a, string) result) ->
    string -> string -> t -> ('a option, string) result
  (** [nullable read ctx name json]: the field must be present; [null]
      decodes to [None], anything else through [read ctx name json]. *)

  val header :
    ?doc:string -> ?kind:string -> version:int -> string -> t ->
    (unit, string) result
  (** The versioned-document header: [schema_version] must be the
      integer [version] (else ["unsupported <doc> schema version N
      (this build reads version V)"]), then, when [kind] is given, the
      string field [kind] must equal it (else ["<ctx>: unexpected kind
      \"...\""]). *)
end
