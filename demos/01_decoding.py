"""Watch the semi-autoregressive decoder fill in a completion.

A freshly initialized denoiser produces near-uniform babble, but the
mechanics are visible: the completion starts fully masked, and each step
commits the highest-confidence positions inside the active block.
"""

import numpy as np

from rspo_lab import denoiser
from rspo_lab.denoiser import init_params
from rspo_lab.mdm import DecodeConfig, decode
from rspo_lab.tasks import VOCAB_SIZE, decode_tokens, encode_text, gen_arith


def main():
    rng = np.random.default_rng(7)
    inst = gen_arith(rng, modulus=10)
    prompt = encode_text(inst.prompt_text)

    params = init_params(VOCAB_SIZE, window=3, hidden=32, embed_dim=8,
                         n_positions=len(prompt) + 8, seed=0)

    print(f"prompt: {inst.prompt_text!r}  (answer: {inst.payload['answer']})")
    print()

    # instrument the forward to show the mask pattern before every denoiser
    # call; the decoder's forwards share one layout of a stack holding the
    # one completion
    forward = denoiser.forward

    def narrated(params, layout, where):
        print("  state:", decode_tokens(layout.completion[0]))
        return forward(params, layout, where)

    cfg = DecodeConfig(gen_len=8, block_size=4, unmask_per_step=2, temperature=0.9)
    print("decoding trace (~ marks a masked slot, blocks fill left to right):")
    denoiser.forward = narrated
    try:
        out = decode(params, [prompt], cfg, [rng]).completion[0]
    finally:
        denoiser.forward = forward
    print("  final:", decode_tokens(out))


if __name__ == "__main__":
    main()
