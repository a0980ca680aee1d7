(** Attributes and attribute predicates (§3.3.1).

    "Each attribute has a type and a value. The 'type' indicates the
    format and the meaning of the value field."  A user profile is a
    set of attributes; each carries a visibility level because "users
    must have the option to limit the access to their personal
    information to specific groups or organizations". *)

(** Typed attribute values. *)
type value =
  | Text of string  (** names, aliases, job titles, cities, … *)
  | Number of float  (** years of experience, … *)
  | Keywords of string list  (** interests, specialties, … *)

type visibility =
  | Public
  | Org of string  (** visible only to members of this organisation. *)
  | Private  (** visible only to the user themself. *)

type attr = { key : string; value : value; visibility : visibility }

val attr : ?visibility:visibility -> string -> value -> attr
(** Default visibility [Public].
    @raise Invalid_argument on an empty key. *)

val text : ?visibility:visibility -> string -> string -> attr
val number : ?visibility:visibility -> string -> float -> attr
val keywords : ?visibility:visibility -> string -> string list -> attr

(** Who is asking — controls which attributes a query may see. *)
type viewer = { org : string option; is_self : bool }

val anyone : viewer
(** No organisation, not the profile owner. *)

val member_of : string -> viewer

val visible_to : viewer -> attr -> bool

(** Query predicates over a profile's visible attributes. *)
type pred =
  | Eq of string * value  (** attribute [key] has exactly this value. *)
  | Has_key of string
  | Text_prefix of string * string  (** case-insensitive prefix on a [Text]. *)
  | Text_contains of string * string  (** case-insensitive substring on a [Text]. *)
  | Has_keyword of string * string  (** [Keywords] value contains the word. *)
  | Between of string * float * float  (** inclusive range on a [Number]. *)
  | And of pred list
  | Or of pred list
  | Not of pred

val value_equal : value -> value -> bool

val matches : viewer:viewer -> attrs:attr list -> pred -> bool
(** Evaluate the predicate against the attributes visible to the
    viewer.  [And \[\]] is true, [Or \[\]] is false. *)

val pp_value : Format.formatter -> value -> unit
val pp_pred : Format.formatter -> pred -> unit
