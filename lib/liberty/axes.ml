type t = { slews : float array; loads : float array }

let paper =
  {
    slews = [| 5e-12; 15e-12; 40e-12; 90e-12; 200e-12; 450e-12; 947e-12 |];
    loads = [| 0.5e-15; 1e-15; 2e-15; 4e-15; 8e-15; 14e-15; 20e-15 |];
  }

let coarse =
  {
    slews = [| 5e-12; 90e-12; 947e-12 |];
    loads = [| 0.5e-15; 4e-15; 20e-15 |];
  }

let count t = Array.length t.slews * Array.length t.loads
