type resource =
  | Wall_clock
  | Page_reads
  | Comparisons
  | Node_accesses
  | In_flight

type t =
  | Timeout of { elapsed_s : float; deadline_s : float }
  | Io_failed of { site : string; attempts : int }
  | Budget_exceeded of { resource : resource; spent : int; limit : int }
  | Rejected of { resource : resource; estimated : int; limit : int }

let resource_name = function
  | Wall_clock -> "wall_clock"
  | Page_reads -> "page_reads"
  | Comparisons -> "comparisons"
  | Node_accesses -> "node_accesses"
  | In_flight -> "in_flight"

let kind = function
  | Timeout _ -> "timeout"
  | Io_failed _ -> "io_failed"
  | Budget_exceeded { resource; _ } -> "budget_exceeded:" ^ resource_name resource
  | Rejected { resource; _ } -> "rejected:" ^ resource_name resource

let same_kind a b = String.equal (kind a) (kind b)

let pp ppf = function
  | Timeout { elapsed_s; deadline_s } ->
    Format.fprintf ppf "query timed out after %.3fs (deadline %.3fs)" elapsed_s
      deadline_s
  | Io_failed { site; attempts } ->
    Format.fprintf ppf "I/O failed at %s after %d attempt%s" site attempts
      (if attempts = 1 then "" else "s")
  | Budget_exceeded { resource; spent; limit } ->
    Format.fprintf ppf "budget exceeded: %s spent %d, limit %d"
      (resource_name resource) spent limit
  | Rejected { resource; estimated; limit } ->
    Format.fprintf ppf
      "rejected by admission control: estimated %d %s exceeds the budget's %d"
      estimated (resource_name resource) limit

let to_string e = Format.asprintf "%a" pp e
