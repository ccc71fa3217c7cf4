(* The statistical service oracle's fast seed set (see
   [oracle/service_oracle.ml]); [oracle/full.exe] runs the full one. *)
let suite =
  [
    Alcotest.test_case "fast seeds, R=2: exact bitwise, sketch within (ε,δ)" `Quick
      (Service_oracle.seed_set ~replicas:2 [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    Alcotest.test_case "fast seeds, R=1: exact bitwise, sketch within (ε,δ)" `Quick
      (Service_oracle.seed_set ~replicas:1 [ 1; 2; 3; 4 ]);
  ]
