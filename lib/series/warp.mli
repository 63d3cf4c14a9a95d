(** Time warping (Example 1.2 and Appendix A).

    The paper's warping stretches the time dimension by an integer
    factor: every value [v] becomes [m] copies of [v]. Appendix A shows
    the first [k] Fourier coefficients of the stretched series are
    obtained from those of the original by the linear transformation
    [T = (a, 0)] with [a_f = Σ_(t<m) e^(-2π·t·f·j / (m·n))]. *)

(** [expand m s] replaces every value by [m] consecutive copies
    (Eq. 16); the result has length [m · length s]. Raises
    [Invalid_argument] when [m < 1]. *)
val expand : int -> Series.t -> Series.t

(** [coefficients ~m ~n ~k] is the warp vector [a] of Eq. 19 for
    stretching a length-[n] series by factor [m], truncated to the first
    [k] coefficients. *)
val coefficients : m:int -> n:int -> k:int -> Simq_dsp.Cpx.t array

(** [spectrum_of_expanded m s] predicts the first [length s] unitary DFT
    coefficients of [expand m s] directly from the spectrum of [s]:
    coefficient [f] is [a_f · S_f / sqrt m] (the [1/sqrt m] adjusts
    Appendix A's [1/sqrt n] normalisation to the unitary convention of a
    length-[m·n] transform). *)
val spectrum_of_expanded : int -> Series.t -> Simq_dsp.Cpx.t array
