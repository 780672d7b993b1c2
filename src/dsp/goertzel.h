/**
 * @file
 * Former name of the band detector's plan, kept for callers that
 * still spell it this way.
 */

#ifndef EMSTRESS_DSP_GOERTZEL_H
#define EMSTRESS_DSP_GOERTZEL_H

#include "dsp/spectrum.h"

namespace emstress::dsp {
using GoertzelBank = BandPlan;
} // namespace emstress::dsp

#endif // EMSTRESS_DSP_GOERTZEL_H
