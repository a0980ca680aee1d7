type value = Text of string | Number of float | Keywords of string list

type visibility = Public | Org of string | Private

type attr = { key : string; value : value; visibility : visibility }

let attr ?(visibility = Public) key value =
  if String.length key = 0 then invalid_arg "Attribute.attr: empty key";
  { key; value; visibility }

let text ?visibility key s = attr ?visibility key (Text s)
let number ?visibility key f = attr ?visibility key (Number f)
let keywords ?visibility key ws = attr ?visibility key (Keywords ws)

type viewer = { org : string option; is_self : bool }

let anyone = { org = None; is_self = false }
let member_of org = { org = Some org; is_self = false }

let visible_to viewer a =
  viewer.is_self
  ||
  match a.visibility with
  | Public -> true
  | Org o -> ( match viewer.org with Some vo -> String.equal vo o | None -> false)
  | Private -> false

type pred =
  | Eq of string * value
  | Has_key of string
  | Text_prefix of string * string
  | Text_contains of string * string
  | Has_keyword of string * string
  | Between of string * float * float
  | And of pred list
  | Or of pred list
  | Not of pred

let value_equal a b =
  match (a, b) with
  | Text x, Text y -> String.equal x y
  | Number x, Number y -> x = y
  | Keywords x, Keywords y ->
      List.length x = List.length y && List.for_all2 String.equal x y
  | (Text _ | Number _ | Keywords _), _ -> false

let lowercase = String.lowercase_ascii

let is_prefix ~prefix s =
  String.length prefix <= String.length s
  && String.equal prefix (String.sub s 0 (String.length prefix))

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else begin
    let rec scan i = i + n <= m && (String.equal sub (String.sub s i n) || scan (i + 1)) in
    scan 0
  end

let rec matches ~viewer ~attrs pred =
  let visible = List.filter (visible_to viewer) attrs in
  let with_key key f = List.exists (fun a -> String.equal a.key key && f a.value) visible in
  match pred with
  | Eq (key, v) -> with_key key (fun v' -> value_equal v v')
  | Has_key key -> with_key key (fun _ -> true)
  | Text_prefix (key, p) ->
      with_key key (function
        | Text s -> is_prefix ~prefix:(lowercase p) (lowercase s)
        | Number _ | Keywords _ -> false)
  | Text_contains (key, sub) ->
      with_key key (function
        | Text s -> contains_sub ~sub:(lowercase sub) (lowercase s)
        | Number _ | Keywords _ -> false)
  | Has_keyword (key, word) ->
      with_key key (function
        | Keywords ws -> List.exists (fun w -> String.equal (lowercase w) (lowercase word)) ws
        | Text _ | Number _ -> false)
  | Between (key, lo, hi) ->
      with_key key (function
        | Number x -> lo <= x && x <= hi
        | Text _ | Keywords _ -> false)
  | And preds -> List.for_all (fun p -> matches ~viewer ~attrs p) preds
  | Or preds -> List.exists (fun p -> matches ~viewer ~attrs p) preds
  | Not p -> not (matches ~viewer ~attrs p)

let pp_value ppf = function
  | Text s -> Format.fprintf ppf "%S" s
  | Number f -> Format.fprintf ppf "%g" f
  | Keywords ws ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Format.pp_print_string)
        ws

let rec pp_pred ppf = function
  | Eq (k, v) -> Format.fprintf ppf "%s = %a" k pp_value v
  | Has_key k -> Format.fprintf ppf "has(%s)" k
  | Text_prefix (k, p) -> Format.fprintf ppf "%s =~ %S*" k p
  | Text_contains (k, s) -> Format.fprintf ppf "%s =~ *%S*" k s
  | Has_keyword (k, w) -> Format.fprintf ppf "%s ∋ %S" k w
  | Between (k, lo, hi) -> Format.fprintf ppf "%g <= %s <= %g" lo k hi
  | And ps -> pp_compound ppf "and" ps
  | Or ps -> pp_compound ppf "or" ps
  | Not p -> Format.fprintf ppf "not (%a)" pp_pred p

and pp_compound ppf op ps =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " %s " op)
       pp_pred)
    ps
