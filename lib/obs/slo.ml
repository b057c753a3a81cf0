module Stats = Educhip_util.Stats

type objective = { p99_ms : float; success_rate : float }

let default_objectives =
  [
    ("basic", { p99_ms = 1000.0; success_rate = 0.90 });
    ("advanced", { p99_ms = 500.0; success_rate = 0.95 });
  ]

(* Per-tier sliding window over the last [window] completed requests:
   a latency ring plus an outcome ring, advanced together. Fixed-size
   arrays, O(1) record, O(window) report — the stats verb is polled at
   human timescales, so recomputation beats bookkeeping. *)
type ring = {
  latencies : float array;
  outcomes : bool array;
  mutable next : int;  (* slot the next sample lands in *)
  mutable count : int;  (* samples recorded, saturating at window *)
}

type t = {
  window : int;
  tiers : (string * (objective * ring)) list;  (* fixed at create *)
}

type report = {
  tier : string;
  objective : objective;
  samples : int;
  p50_ms : float;
  p99_ms : float;
  ok_rate : float;
  latency_budget : float;
  success_budget : float;
  burn_rate : float;
}

let create ?(window = 256) objectives =
  if window <= 0 then invalid_arg "Slo.create: window must be positive";
  {
    window;
    tiers =
      List.map
        (fun (tier, objective) ->
          ( tier,
            ( objective,
              {
                latencies = Array.make window 0.0;
                outcomes = Array.make window true;
                next = 0;
                count = 0;
              } ) ))
        objectives;
  }

let window t = t.window
let tiers t = List.map fst t.tiers

let record t ~tier ~latency_ms ~ok =
  match List.assoc_opt tier t.tiers with
  | None -> ()  (* unknown tier: no objective, nothing to burn *)
  | Some (_, r) ->
    r.latencies.(r.next) <- latency_ms;
    r.outcomes.(r.next) <- ok;
    r.next <- (r.next + 1) mod t.window;
    if r.count < t.window then r.count <- r.count + 1

(* Budgets are "fraction of the error allowance still unspent" over the
   window, clamped to [0, 1]; burn rate is observed-error over allowed-
   error (1.0 = burning exactly at budget), capped so a fully failing
   tier still serializes as a finite number. *)
let max_burn = 1000.0

let budget_of ~observed_bad ~allowed_bad =
  if allowed_bad <= 0.0 then if observed_bad > 0.0 then 0.0 else 1.0
  else Float.max 0.0 (1.0 -. (observed_bad /. allowed_bad))

let burn_of ~observed_bad ~allowed_bad =
  if allowed_bad <= 0.0 then if observed_bad > 0.0 then max_burn else 0.0
  else Float.min max_burn (observed_bad /. allowed_bad)

let report_of ~tier ~objective r =
  if r.count = 0 then
    {
      tier;
      objective;
      samples = 0;
      p50_ms = 0.0;
      p99_ms = 0.0;
      ok_rate = 1.0;
      latency_budget = 1.0;
      success_budget = 1.0;
      burn_rate = 0.0;
    }
  else begin
    let n = r.count in
    let lats = ref [] and slow = ref 0 and failed = ref 0 in
    for i = 0 to n - 1 do
      lats := r.latencies.(i) :: !lats;
      if r.latencies.(i) > objective.p99_ms then incr slow;
      if not r.outcomes.(i) then incr failed
    done;
    let nf = float_of_int n in
    let slow_frac = float_of_int !slow /. nf in
    let err_frac = float_of_int !failed /. nf in
    (* the p99 target tolerates 1% slow requests by definition *)
    let latency_allowance = 0.01 in
    let success_allowance = 1.0 -. objective.success_rate in
    let latency_budget = budget_of ~observed_bad:slow_frac ~allowed_bad:latency_allowance in
    let success_budget = budget_of ~observed_bad:err_frac ~allowed_bad:success_allowance in
    {
      tier;
      objective;
      samples = n;
      p50_ms = Stats.percentile 50.0 !lats;
      p99_ms = Stats.percentile 99.0 !lats;
      ok_rate = 1.0 -. err_frac;
      latency_budget;
      success_budget;
      burn_rate =
        Float.max
          (burn_of ~observed_bad:slow_frac ~allowed_bad:latency_allowance)
          (burn_of ~observed_bad:err_frac ~allowed_bad:success_allowance);
    }
  end

let report t ~tier =
  Option.map (fun (objective, r) -> report_of ~tier ~objective r) (List.assoc_opt tier t.tiers)

let reports t = List.map (fun (tier, (objective, r)) -> report_of ~tier ~objective r) t.tiers

(* {1 Wire form} — owned here so the server and client agree by construction *)

let report_json r =
  Jsonout.Obj
    [
      ("tier", Jsonout.String r.tier);
      ("target_p99_ms", Jsonout.Float r.objective.p99_ms);
      ("target_success_rate", Jsonout.Float r.objective.success_rate);
      ("samples", Jsonout.Int r.samples);
      ("p50_ms", Jsonout.Float r.p50_ms);
      ("p99_ms", Jsonout.Float r.p99_ms);
      ("ok_rate", Jsonout.Float r.ok_rate);
      ("latency_budget", Jsonout.Float r.latency_budget);
      ("success_budget", Jsonout.Float r.success_budget);
      ("burn_rate", Jsonout.Float r.burn_rate);
    ]

let report_of_json j =
  match Jsonout.string "tier" j with
  | Some tier ->
    let f k d = Option.value (Jsonout.float k j) ~default:d in
    Some
      {
        tier;
        objective =
          { p99_ms = f "target_p99_ms" 0.0; success_rate = f "target_success_rate" 0.0 };
        samples = Option.value (Jsonout.int "samples" j) ~default:0;
        p50_ms = f "p50_ms" 0.0;
        p99_ms = f "p99_ms" 0.0;
        ok_rate = f "ok_rate" 1.0;
        latency_budget = f "latency_budget" 1.0;
        success_budget = f "success_budget" 1.0;
        burn_rate = f "burn_rate" 0.0;
      }
  | _ -> None
