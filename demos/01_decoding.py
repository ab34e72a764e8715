"""Watch the semi-autoregressive decoder fill in a completion.

A freshly initialized denoiser produces near-uniform babble, but the
mechanics are visible: the completion starts fully masked, and each step
commits the highest-confidence positions inside the active block.
"""

import numpy as np

from rspo_lab.denoiser import init_params
from rspo_lab.mdm import DecodeConfig, decode, forward_mask, reverse_step
from rspo_lab.sequences import Sequence
from rspo_lab.tasks import VOCAB_SIZE, decode_tokens, encode_text, gen_arith


def main():
    rng = np.random.default_rng(7)
    inst = gen_arith(rng, modulus=10)
    prompt = encode_text(inst.prompt_text)

    params = init_params(VOCAB_SIZE, window=3, hidden=32, embed_dim=8,
                         n_positions=len(prompt) + 8, seed=0)

    print(f"prompt: {inst.prompt_text!r}  (answer: {inst.payload['answer']})")
    print()

    # instrument the model to show the mask pattern before every denoiser call;
    # the decoder hands it a stack holding the one completion
    class Narrator:
        def logprobs(self, seq, where):
            print("  state:", decode_tokens(seq.completion[0]))
            return params.logprobs(seq, where)

    cfg = DecodeConfig(gen_len=8, block_size=4, unmask_per_step=2, temperature=0.9)
    print("decoding trace (~ marks a masked slot, blocks fill left to right):")
    out = decode(Narrator(), [prompt], cfg, [rng]).completion[0]
    print("  final:", decode_tokens(out))
    print()

    # the forward process is the mirror image: mask a clean sequence, then
    # take one big reverse step with the model
    clean = Sequence(prompt=prompt, completion=out)
    noised = forward_mask(clean, t=0.6, rng=rng)
    print(f"forward corruption at t=0.6: {decode_tokens(noised.completion)}")
    denoised = reverse_step(params, noised, t=0.6, s=0.0, rng=rng)
    print(f"one reverse step to s=0:     {decode_tokens(denoised.completion)}")


if __name__ == "__main__":
    main()
