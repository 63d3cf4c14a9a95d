(** Coordinate representations of complex feature vectors (Section 3.1).

    A vector of [k] complex features becomes a point in a [2k]-dimensional
    real space, either:
    - [Rectangular] ([S_rect]): dimensions [2i, 2i+1] carry
      [Re x_i, Im x_i]; Euclidean distance on points equals complex
      Euclidean distance on features; or
    - [Polar] ([S_pol]): dimensions [2i, 2i+1] carry [|x_i|, Angle x_i];
      distance is distorted but complex stretches are safe (Theorem 3). *)

type representation = Rectangular | Polar

(** [encode rep x] maps [k] complex features to a [2k]-dimensional
    point. *)
val encode : representation -> Simq_dsp.Cpx.t array -> Point.t

(** [decode rep p] inverts {!encode}. Raises [Invalid_argument] on odd
    dimension counts. *)
val decode : representation -> Point.t -> Simq_dsp.Cpx.t array

(** [search_region rep ~query ~epsilon] is the minimum bounding region of
    the ε-ball around [query] (Section 3.1):
    - [Rectangular]: [q_i ± ε] per dimension;
    - [Polar]: magnitude in [max 0 (m-ε), m+ε], angle in
      [α ± asin(ε/m)] — the full circle when [ε >= m] (Figure 7).
    Every complex vector within Euclidean distance [epsilon] of [query]
    encodes to a point inside the region. *)
val search_region :
  representation -> query:Simq_dsp.Cpx.t array -> epsilon:float -> Region.t

(** [distance_lower_bound rep a b] is a lower bound on the complex
    Euclidean distance given only encoded points: exact in
    [Rectangular]; in [Polar] the chord-length bound
    [sqrt (Σ (m1-m2)² + (2·min(m1,m2)·sin(Δθ/2))²)]. *)
val distance_lower_bound : representation -> Point.t -> Point.t -> float
